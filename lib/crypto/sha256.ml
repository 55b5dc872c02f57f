(* FIPS 180-4. Words live in native ints masked to 32 bits, so the
   compression function does not allocate (an [int32] array would box every
   store); a 64-byte internal block buffer serves incremental hashing. *)

let digest_size = 32

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
    0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
    0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
    0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
    0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
    0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
    0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
    0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
    0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes hashed so far *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let copy c =
  {
    h = Array.copy c.h;
    buf = Bytes.copy c.buf;
    buf_len = c.buf_len;
    total = c.total;
    w = Array.make 64 0;
  }

let mask = 0xffffffff
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask [@@inline]

(* Compress one 64-byte block located at [off] in [block]. The schedule
   loops index [w] (64 words) and [k] within their fixed bounds, so they
   skip the bounds checks. *)
let compress ctx (block : Bytes.t) off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i
      (Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3)
    and s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 63 do
    let e0 = !e and a0 = !a in
    let s1 = rotr e0 6 lxor rotr e0 11 lxor rotr e0 25 in
    let ch = (e0 land !f) lxor (lnot e0 land !g) in
    let temp1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = rotr a0 2 lxor rotr a0 13 lxor rotr a0 22 in
    let maj = (a0 land !b) lxor (a0 land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e0;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := a0;
    a := (temp1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let update_bytes ctx data off len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Sha256.update_bytes";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need !remaining in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx data !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s =
  update_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize ctx =
  let bit_len = Int64.mul (Int64.of_int ctx.total) 8L in
  (* Padding: 0x80, zeros, 8-byte big-endian bit length. *)
  let pad_len =
    let rem = (ctx.buf_len + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad pad_len bit_len;
  let total_before = ctx.total in
  update_bytes ctx pad 0 (Bytes.length pad);
  ctx.total <- total_before;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) ctx.h;
  Bytes.unsafe_to_string out

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx
