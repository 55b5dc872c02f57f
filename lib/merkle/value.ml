type ptr = { key : Key.t; hash : string; in_blum : bool }
type node = { left : ptr option; right : ptr option }
type t = Data of string option | Node of node

let empty_node = Node { left = None; right = None }

let init k = if Key.is_data_key k then Data None else empty_node

let is_init k v =
  match (Key.is_data_key k, v) with
  | true, Data None -> true
  | false, Node { left = None; right = None } -> true
  | _, (Data _ | Node _) -> false

let compatible k v =
  match v with Data _ -> Key.is_data_key k | Node _ -> not (Key.is_data_key k)

let slot n d = if d then n.right else n.left

let set_slot n d p = if d then { n with right = p } else { n with left = p }

(* Encoded sizes: a tag byte, then per pointer slot a presence byte and,
   when set, a 34-byte key, the hash and an [in_blum] byte. *)
let ptr_size = function None -> 1 | Some p -> 36 + String.length p.hash

let encoded_size = function
  | Data None -> 1
  | Data (Some s) -> 1 + String.length s
  | Node { left; right } -> 1 + ptr_size left + ptr_size right

let encode_ptr b off p =
  match p with
  | None ->
      Bytes.set b off '\x00';
      off + 1
  | Some { key; hash; in_blum } ->
      let n = String.length hash in
      Bytes.set b off '\x01';
      Key.encode_into key b (off + 1);
      Bytes.blit_string hash 0 b (off + 35) n;
      Bytes.set b (off + 35 + n) (if in_blum then '\x01' else '\x00');
      off + 36 + n

let encode_into v b off =
  match v with
  | Data None -> Bytes.set b off '\x00'
  | Data (Some s) ->
      Bytes.set b off '\x01';
      Bytes.blit_string s 0 b (off + 1) (String.length s)
  | Node { left; right } ->
      Bytes.set b off '\x02';
      ignore (encode_ptr b (encode_ptr b (off + 1) left) right : int)

let encode v =
  let b = Bytes.create (encoded_size v) in
  encode_into v b 0;
  Bytes.unsafe_to_string b

let decode s =
  let ( let* ) = Result.bind in
  let fail msg = Error ("Value.decode: " ^ msg) in
  let n = String.length s in
  if n = 0 then fail "empty"
  else
    match s.[0] with
    | '\x00' -> if n = 1 then Ok (Data None) else fail "trailing bytes"
    | '\x01' -> Ok (Data (Some (String.sub s 1 (n - 1))))
    | '\x02' ->
        let decode_ptr off =
          if off >= n then fail "truncated pointer"
          else
            match s.[off] with
            | '\x00' -> Ok (None, off + 1)
            | '\x01' ->
                if off + 1 + 34 + 32 + 1 > n then fail "truncated pointer"
                else
                  let kenc = String.sub s (off + 1) 34 in
                  let depth = String.get_uint16_le kenc 0 in
                  if depth > Key.max_depth then fail "bad key depth"
                  else
                    let path = Key.of_bytes32 (String.sub kenc 2 32) in
                    let key =
                      if depth = Key.max_depth then path else Key.prefix path depth
                    in
                    (* Reject non-canonical keys (set bits beyond depth). *)
                    if not (String.equal (Key.encode key) kenc) then
                      fail "non-canonical key"
                    else
                      let hash = String.sub s (off + 35) 32 in
                      let in_blum =
                        match s.[off + 67] with
                        | '\x00' -> false
                        | '\x01' -> true
                        | _ -> raise Exit
                      in
                      Ok (Some { key; hash; in_blum }, off + 68)
            | _ -> fail "bad pointer tag"
        in
        (try
           let* left, off = decode_ptr 1 in
           let* right, off = decode_ptr off in
           if off <> n then fail "trailing bytes"
           else Ok (Node { left; right })
         with Exit -> fail "bad in_blum flag")
    | _ -> fail "bad value tag"

let ptr_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      Key.equal a.key b.key && String.equal a.hash b.hash
      && Bool.equal a.in_blum b.in_blum
  | None, Some _ | Some _, None -> false

let equal a b =
  match (a, b) with
  | Data a, Data b -> Option.equal String.equal a b
  | Node a, Node b -> ptr_equal a.left b.left && ptr_equal a.right b.right
  | Data _, Node _ | Node _, Data _ -> false

let pp_ptr ppf p =
  match p with
  | None -> Format.fprintf ppf "·"
  | Some { key; hash; in_blum } ->
      Format.fprintf ppf "(%a,%s%s)" Key.pp key
        (Fastver_crypto.Bytes_util.to_hex (String.sub hash 0 4))
        (if in_blum then ",blum" else "")

let pp ppf v =
  match v with
  | Data None -> Format.fprintf ppf "null"
  | Data (Some s) ->
      if String.length s <= 16 && String.for_all (fun c -> c >= ' ' && c < '\x7f') s
      then Format.fprintf ppf "%S" s
      else Format.fprintf ppf "data[%d]" (String.length s)
  | Node { left; right } ->
      Format.fprintf ppf "node[%a %a]" pp_ptr left pp_ptr right
