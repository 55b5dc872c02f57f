(* Straightforward FIPS 180-4 implementation over Int32, with a 64-byte
   internal block buffer for incremental hashing. *)

let digest_size = 32

let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
    0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
    0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
    0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
    0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
    0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
    0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
    0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
    0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
    0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
    0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

type ctx = {
  h : int32 array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int64; (* bytes hashed so far *)
  w : int32 array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
        0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0L;
    w = Array.make 64 0l;
  }

let copy c =
  {
    h = Array.copy c.h;
    buf = Bytes.copy c.buf;
    buf_len = c.buf_len;
    total = c.total;
    w = Array.make 64 0l;
  }

let ( +% ) = Int32.add
let ( ^% ) = Int32.logxor
let ( &% ) = Int32.logand
let ( |% ) = Int32.logor
let notl = Int32.lognot

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

(* Compress one 64-byte block located at [off] in [block]. *)
let compress ctx (block : Bytes.t) off =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Bytes.get_int32_be block (off + (4 * i))
  done;
  for i = 16 to 63 do
    let s0 =
      rotr w.(i - 15) 7 ^% rotr w.(i - 15) 18
      ^% Int32.shift_right_logical w.(i - 15) 3
    and s1 =
      rotr w.(i - 2) 17 ^% rotr w.(i - 2) 19
      ^% Int32.shift_right_logical w.(i - 2) 10
    in
    w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
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
    let s1 = rotr !e 6 ^% rotr !e 11 ^% rotr !e 25 in
    let ch = (!e &% !f) ^% (notl !e &% !g) in
    let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
    let s0 = rotr !a 2 ^% rotr !a 13 ^% rotr !a 22 in
    let maj = (!a &% !b) ^% (!a &% !c) ^% (!b &% !c) in
    let temp2 = s0 +% maj in
    hh := !g;
    g := !f;
    f := !e;
    e := !d +% temp1;
    d := !c;
    c := !b;
    b := !a;
    a := temp1 +% temp2
  done;
  ignore ( |% );
  h.(0) <- h.(0) +% !a;
  h.(1) <- h.(1) +% !b;
  h.(2) <- h.(2) +% !c;
  h.(3) <- h.(3) +% !d;
  h.(4) <- h.(4) +% !e;
  h.(5) <- h.(5) +% !f;
  h.(6) <- h.(6) +% !g;
  h.(7) <- h.(7) +% !hh

let update_bytes ctx data off len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Sha256.update_bytes";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
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
  let bit_len = Int64.mul ctx.total 8L in
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
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) v) ctx.h;
  Bytes.unsafe_to_string out

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx
