let xor a b =
  if String.length a <> String.length b then
    invalid_arg "Bytes_util.xor: length mismatch";
  String.init (String.length a) (fun i ->
      Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let equal_constant_time a b =
  let la = String.length a and lb = String.length b in
  let n = max la lb in
  let acc = ref (la lxor lb) in
  for i = 0 to n - 1 do
    let ca = if i < la then Char.code a.[i] else 0
    and cb = if i < lb then Char.code b.[i] else 0 in
    acc := !acc lor (ca lxor cb)
  done;
  !acc = 0

let hex_digits = "0123456789abcdef"

let to_hex s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set out (2 * i) hex_digits.[v lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[v land 0xf])
    s;
  Bytes.unsafe_to_string out

let digit_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bytes_util.of_hex: bad digit"

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Bytes_util.of_hex: odd length";
  String.init (n / 2) (fun i ->
      Char.chr ((digit_value s.[2 * i] lsl 4) lor digit_value s.[(2 * i) + 1]))

let get_u64_le s off = String.get_int64_le s off
let set_u64_le b off v = Bytes.set_int64_le b off v

let string_of_u64_le v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Bytes.unsafe_to_string b

let zeros n = String.make n '\000'
