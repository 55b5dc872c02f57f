(* RFC 7693 BLAKE2s. The whole hash runs in C (blake2s_stubs.c); an
   incremental context only collects its input for one call at the end. *)

external digest_into : string -> Bytes.t -> unit = "fv_blake2s_digest"
[@@noalloc]

type ctx = { buf : Buffer.t; digest_size : int }

let check_size digest_size =
  if digest_size < 1 || digest_size > 32 then
    invalid_arg "Blake2s.init: digest_size out of range"

let init ?(digest_size = 32) () =
  check_size digest_size;
  { buf = Buffer.create 64; digest_size }

let update ctx s = Buffer.add_string ctx.buf s

let digest ?(digest_size = 32) msg =
  check_size digest_size;
  let out = Bytes.create digest_size in
  digest_into msg out;
  Bytes.unsafe_to_string out

let finalize ctx = digest ~digest_size:ctx.digest_size (Buffer.contents ctx.buf)
