(* FIPS 180-4. Compression runs in C (sha256_stubs.c), over as many whole
   blocks as each update supplies; a 64-byte buffer holds the rest. *)

external compress : Bytes.t -> Bytes.t -> int -> int -> unit
  = "fv_sha256_compress"
[@@noalloc]

let digest_size = 32

type ctx = {
  h : Bytes.t; (* 8 big-endian chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes hashed so far *)
}

let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

let init () =
  { h = Bytes.of_string iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let copy c = { c with h = Bytes.copy c.h; buf = Bytes.copy c.buf }

let update_bytes ctx data off len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Sha256.update_bytes";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) !remaining in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx.h ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  let blocks = !remaining / 64 in
  if blocks > 0 then begin
    compress ctx.h data !pos blocks;
    pos := !pos + (64 * blocks);
    remaining := !remaining - (64 * blocks)
  end;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s =
  update_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Padding: 0x80, zeros, then the 8-byte big-endian bit length, in one
   block or, when fewer than 9 bytes are free, two. *)
let finalize ctx =
  let b = ctx.buf and n = ctx.buf_len in
  Bytes.set b n '\x80';
  Bytes.fill b (n + 1) (63 - n) '\000';
  if n >= 56 then begin
    compress ctx.h b 0 1;
    Bytes.fill b 0 56 '\000'
  end;
  Bytes.set_int64_be b 56 (Int64.mul (Int64.of_int ctx.total) 8L);
  compress ctx.h b 0 1;
  Bytes.to_string ctx.h

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx
