(* RFC 7693 BLAKE2s: 64-byte blocks, 32-bit words, 10 rounds. Words live in
   native ints masked to 32 bits; the working vector is one preallocated int
   array, so compression does not allocate. *)

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

let sigma =
  [|
    [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |];
    [| 14; 10; 4; 8; 9; 15; 13; 6; 1; 12; 0; 2; 11; 7; 5; 3 |];
    [| 11; 8; 12; 0; 5; 2; 15; 13; 10; 14; 3; 6; 7; 1; 9; 4 |];
    [| 7; 9; 3; 1; 13; 12; 11; 14; 2; 6; 5; 10; 4; 0; 15; 8 |];
    [| 9; 0; 5; 7; 2; 4; 10; 15; 14; 1; 11; 12; 6; 8; 3; 13 |];
    [| 2; 12; 6; 10; 0; 11; 8; 3; 4; 13; 7; 5; 15; 14; 1; 9 |];
    [| 12; 5; 1; 15; 14; 13; 4; 10; 0; 7; 6; 3; 9; 2; 8; 11 |];
    [| 13; 11; 7; 14; 12; 1; 3; 9; 5; 0; 15; 4; 8; 6; 2; 10 |];
    [| 6; 15; 14; 9; 11; 3; 0; 8; 12; 2; 13; 7; 1; 4; 10; 5 |];
    [| 10; 2; 8; 4; 7; 6; 1; 5; 15; 11; 9; 14; 3; 12; 13; 0 |];
  |]

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* byte counter; inputs < 2^62 bytes *)
  digest_size : int;
  m : int array; (* scratch: 16 message words *)
  v : int array; (* scratch: working vector *)
}

let mask32 = 0xffffffff
let ror32 x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* The mixing function G on columns/diagonals [a b c d] of the working
   vector, with message words [s.(i)] and [s.(i+1)]. Every index is a
   constant below 16, so the accesses skip the bounds checks. *)
let g v m s a b c d i =
  let x = Array.unsafe_get m (Array.unsafe_get s i)
  and y = Array.unsafe_get m (Array.unsafe_get s (i + 1)) in
  let va = (Array.unsafe_get v a + Array.unsafe_get v b + x) land mask32 in
  let vd = ror32 (Array.unsafe_get v d lxor va) 16 in
  let vc = (Array.unsafe_get v c + vd) land mask32 in
  let vb = ror32 (Array.unsafe_get v b lxor vc) 12 in
  let va = (va + vb + y) land mask32 in
  let vd = ror32 (vd lxor va) 8 in
  let vc = (vc + vd) land mask32 in
  Array.unsafe_set v a va;
  Array.unsafe_set v d vd;
  Array.unsafe_set v c vc;
  Array.unsafe_set v b (ror32 (vb lxor vc) 7)
[@@inline]

let compress ctx ~last =
  let m = ctx.m and v = ctx.v and h = ctx.h in
  for i = 0 to 15 do
    m.(i) <- Int32.to_int (Bytes.get_int32_le ctx.buf (4 * i)) land mask32
  done;
  for i = 0 to 7 do
    v.(i) <- h.(i);
    v.(i + 8) <- iv.(i)
  done;
  v.(12) <- v.(12) lxor (ctx.total land mask32);
  v.(13) <- v.(13) lxor ((ctx.total lsr 32) land mask32);
  if last then v.(14) <- v.(14) lxor mask32;
  for r = 0 to 9 do
    let s = Array.unsafe_get sigma r in
    g v m s 0 4 8 12 0;
    g v m s 1 5 9 13 2;
    g v m s 2 6 10 14 4;
    g v m s 3 7 11 15 6;
    g v m s 0 5 10 15 8;
    g v m s 1 6 11 12 10;
    g v m s 2 7 8 13 12;
    g v m s 3 4 9 14 14
  done;
  for i = 0 to 7 do
    h.(i) <- h.(i) lxor v.(i) lxor v.(i + 8)
  done

let init ?(digest_size = 32) () =
  if digest_size < 1 || digest_size > 32 then
    invalid_arg "Blake2s.init: digest_size out of range";
  let h = Array.copy iv in
  h.(0) <- h.(0) lxor (0x01010000 lor digest_size);
  {
    h;
    buf = Bytes.make 64 '\000';
    buf_len = 0;
    total = 0;
    digest_size;
    m = Array.make 16 0;
    v = Array.make 16 0;
  }

let update ctx s =
  let len = String.length s in
  let pos = ref 0 and remaining = ref len in
  while !remaining > 0 do
    if ctx.buf_len = 64 then begin
      ctx.total <- ctx.total + 64;
      compress ctx ~last:false;
      ctx.buf_len <- 0
    end;
    let take = min (64 - ctx.buf_len) !remaining in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take
  done

let finalize ctx =
  ctx.total <- ctx.total + ctx.buf_len;
  Bytes.fill ctx.buf ctx.buf_len (64 - ctx.buf_len) '\000';
  compress ctx ~last:true;
  let out = Bytes.create 32 in
  Array.iteri
    (fun i w -> Bytes.set_int32_le out (4 * i) (Int32.of_int w))
    ctx.h;
  Bytes.sub_string out 0 ctx.digest_size

let digest ?(digest_size = 32) msg =
  let ctx = init ~digest_size () in
  update ctx msg;
  finalize ctx
