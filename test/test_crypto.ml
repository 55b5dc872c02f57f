(* Cryptographic primitives: published test vectors plus property tests. *)

open Fastver_crypto

let hex = Bytes_util.to_hex
let unhex = Bytes_util.of_hex
let check_hex msg expected got = Alcotest.(check string) msg expected (hex got)

(* --- SHA-256 (FIPS 180-4 / NIST CAVS) --- *)

let test_sha256_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'));
  (* multi-block inputs, digests from Python's hashlib *)
  check_hex "1000 bytes i mod 256"
    "a8af099bf2e878609558dbf69d8f88f4a31040a8cf84b549a0cfa912f12ffc3f"
    (Sha256.digest (String.init 1000 (fun i -> Char.chr (i mod 256))));
  check_hex "137 bytes 7i mod 256"
    "9410a0442580a544679733e583f1177b3b9e67921fc82d0d05557dd1a14cb936"
    (Sha256.digest (String.init 137 (fun i -> Char.chr (7 * i mod 256))))

let test_sha256_incremental () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let reference = Sha256.digest msg in
  (* Every split position in a coarse grid, plus odd chunk sizes. *)
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      while !pos < String.length msg do
        let len = min chunk (String.length msg - !pos) in
        Sha256.update ctx (String.sub msg !pos len);
        pos := !pos + len
      done;
      Alcotest.(check string)
        (Printf.sprintf "chunk=%d" chunk)
        (hex reference)
        (hex (Sha256.finalize ctx)))
    [ 1; 3; 63; 64; 65; 127; 128; 1000 ]

(* --- BLAKE2b / BLAKE2s (RFC 7693) --- *)

let test_blake2b_vectors () =
  check_hex "blake2b-512 abc"
    "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1\
     7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"
    (Blake2b.digest ~digest_size:64 "abc");
  check_hex "blake2b-512 empty"
    "786a02f742015903c6c6fd852552d272912f4740e15847618a86e217f71f5419\
     d25e1031afee585313896444934eb04b903a685b1448b755d56f701afe9be2ce"
    (Blake2b.digest ~digest_size:64 "")

let test_blake2s_vectors () =
  check_hex "blake2s-256 abc"
    "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
    (Blake2s.digest "abc");
  check_hex "blake2s-256 empty"
    "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9"
    (Blake2s.digest "");
  (* multi-block inputs, digests from Python's hashlib; 137 bytes is the
     encoding of a Merkle node with two pointers *)
  check_hex "blake2s-256 1000 bytes i mod 256"
    "b5f9d7799111edafc9326fbf667be98140b5e20ce5e151793c59125bf654ac18"
    (Blake2s.digest (String.init 1000 (fun i -> Char.chr (i mod 256))));
  check_hex "blake2s-256 137 bytes 7i mod 256"
    "86aa892b44e75de3ecfd7029bc3cd6e27b33a171d4de4bcca0e59ec688e02eed"
    (Blake2s.digest (String.init 137 (fun i -> Char.chr (7 * i mod 256))))

let test_blake2_multiblock () =
  (* Exercise the last-block handling around the 64/128-byte boundaries. *)
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr (i mod 256)) in
      let s1 = Blake2s.digest msg in
      let ctx = Blake2s.init () in
      String.iter (fun c -> Blake2s.update ctx (String.make 1 c)) msg;
      Alcotest.(check string)
        (Printf.sprintf "blake2s incremental n=%d" n)
        (hex s1)
        (hex (Blake2s.finalize ctx));
      let b1 = Blake2b.digest msg in
      let ctx = Blake2b.init () in
      String.iter (fun c -> Blake2b.update ctx (String.make 1 c)) msg;
      Alcotest.(check string)
        (Printf.sprintf "blake2b incremental n=%d" n)
        (hex b1)
        (hex (Blake2b.finalize ctx)))
    [ 0; 1; 63; 64; 65; 127; 128; 129; 255; 256 ]

(* --- AES-128 (FIPS 197) and AES-CMAC (RFC 4493) --- *)

let test_aes_vectors () =
  let k = Aes128.expand_key (unhex "000102030405060708090a0b0c0d0e0f") in
  check_hex "fips-197 appendix C"
    "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Aes128.encrypt_block k (unhex "00112233445566778899aabbccddeeff"));
  let k = Aes128.expand_key (unhex "2b7e151628aed2a6abf7158809cf4f3c") in
  check_hex "sp800-38a block 1"
    "3ad77bb40d7a3660a89ecaf32466ef97"
    (Aes128.encrypt_block k (unhex "6bc1bee22e409f96e93d7e117393172a"))

let test_aes_in_place () =
  let k = Aes128.expand_key (unhex "000102030405060708090a0b0c0d0e0f") in
  let buf = Bytes.of_string (unhex "00112233445566778899aabbccddeeff") in
  Aes128.encrypt_block_into k buf buf;
  check_hex "src = dst aliasing" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Bytes.to_string buf)

let test_cmac_vectors () =
  let k = Cmac.of_aes_key (unhex "2b7e151628aed2a6abf7158809cf4f3c") in
  check_hex "len 0" "bb1d6929e95937287fa37d129b756746" (Cmac.mac k "");
  check_hex "len 16" "070a16b46b4d4144f79bdd9dd04a287c"
    (Cmac.mac k (unhex "6bc1bee22e409f96e93d7e117393172a"));
  check_hex "len 40" "dfa66747de9ae63030ca32611497c827"
    (Cmac.mac k
       (unhex
          "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
           30c81c46a35ce411"));
  check_hex "len 64" "51f0bebf7e3b9d92fc49741779363cfe"
    (Cmac.mac k
       (unhex
          "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
           30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"))

(* --- HMAC-SHA256 (RFC 4231) --- *)

let test_hmac_vectors () =
  check_hex "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac ~key:"Jefe" "what do ya want for nothing?");
  check_hex "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First");
  Alcotest.(check bool)
    "verify ok" true
    (Hmac.verify ~key:"k" "msg" ~tag:(Hmac.mac ~key:"k" "msg"));
  Alcotest.(check bool)
    "verify rejects" false
    (Hmac.verify ~key:"k" "msg" ~tag:(Hmac.mac ~key:"k" "msg2"))

(* --- Known answers over every message length 0..300 --- *)

(* Each primitive hashes (or MACs) the concatenation of its own outputs for
   the messages [kat_msg 0] .. [kat_msg 300], which cross every block
   boundary up to five blocks. The constants were computed with Python's
   hashlib and hmac:
     msg(n) = bytes((31*i + n) % 256 for i in range(n))
     blake2s(b"".join(blake2s(msg(n)).digest() for n in range(301)))
   and likewise with sha256, and with hmac-sha256 under the key below. *)
let kat_msg n = String.init n (fun i -> Char.chr (((31 * i) + n) mod 256))

let kat_fold f = f (String.concat "" (List.init 301 (fun n -> f (kat_msg n))))

let test_known_answers () =
  check_hex "blake2s"
    "e10d837352abe948ed43d01b445bf07a95bd1503c37a4cd1eb3b874a6277b2d1"
    (kat_fold (fun m -> Blake2s.digest m));
  check_hex "sha256"
    "2508c478cc7c1417db7b6e5532ddda7c5c497ad1e51c11df37059147d9b81354"
    (kat_fold Sha256.digest);
  let secret = "fastver known-answer key" in
  let key = Hmac.key secret in
  check_hex "hmac-sha256"
    "647a5ac83eb7e3d5efe488b94a64ea224e9e8583f7f64d20d0911a5210820f22"
    (kat_fold (Hmac.mac_with key));
  check_hex "hmac-sha256, key per call"
    "647a5ac83eb7e3d5efe488b94a64ea224e9e8583f7f64d20d0911a5210820f22"
    (kat_fold (Hmac.mac ~key:secret))

(* --- Bytes_util --- *)

let test_bytes_util () =
  Alcotest.(check string) "hex" "00ff10" (hex "\x00\xff\x10");
  Alcotest.(check string) "unhex" "\x00\xff\x10" (unhex "00fF10");
  Alcotest.check_raises "odd hex" (Invalid_argument "Bytes_util.of_hex: odd length")
    (fun () -> ignore (unhex "abc"));
  Alcotest.(check bool) "ct-eq same" true
    (Bytes_util.equal_constant_time "abc" "abc");
  Alcotest.(check bool) "ct-eq diff len" false
    (Bytes_util.equal_constant_time "abc" "abcd");
  Alcotest.(check string) "xor" "\x03\x01" (Bytes_util.xor "\x01\x02" "\x02\x03")

(* --- Multiset hash --- *)

let test_multiset_basic () =
  let key = Multiset_hash.key_of_string "0123456789abcdef" in
  let a = Multiset_hash.create key and b = Multiset_hash.create key in
  Multiset_hash.add a "x";
  Multiset_hash.add a "y";
  Multiset_hash.add b "y";
  Multiset_hash.add b "x";
  Alcotest.(check bool) "order-independent" true (Multiset_hash.equal a b);
  Multiset_hash.add a "x";
  Alcotest.(check bool) "multiplicity counts" false (Multiset_hash.equal a b);
  (* {x,x} must not cancel (the XOR construction would). *)
  let c = Multiset_hash.create key in
  Multiset_hash.add c "x";
  Multiset_hash.add c "x";
  Alcotest.(check bool) "even multiplicity visible" false
    (Multiset_hash.equal_value (Multiset_hash.value c) Multiset_hash.empty_value)

let test_multiset_merge () =
  let key = Multiset_hash.key_of_string "0123456789abcdef" in
  let whole = Multiset_hash.create key in
  List.iter (Multiset_hash.add whole) [ "a"; "b"; "c"; "d" ];
  let p1 = Multiset_hash.create key and p2 = Multiset_hash.create key in
  Multiset_hash.add p1 "a";
  Multiset_hash.add p1 "d";
  Multiset_hash.add p2 "c";
  Multiset_hash.add p2 "b";
  Multiset_hash.merge p1 p2;
  Alcotest.(check bool) "merge = union" true (Multiset_hash.equal whole p1);
  Alcotest.(check string) "of_value roundtrip"
    (hex (Multiset_hash.value whole))
    (hex (Multiset_hash.value (Multiset_hash.of_value key (Multiset_hash.value whole))))

(* --- properties --- *)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> Bytes_util.of_hex (Bytes_util.to_hex s) = s)

let prop_xor_involution =
  QCheck.Test.make ~name:"xor involution" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.return 24)) (string_of_size (QCheck.Gen.return 24)))
    (fun (a, b) -> Bytes_util.xor (Bytes_util.xor a b) b = a)

let prop_sha256_incremental =
  QCheck.Test.make ~name:"sha256 split-invariant" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 300)) small_nat)
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let ctx = Fastver_crypto.Sha256.init () in
      Sha256.update ctx (String.sub s 0 cut);
      Sha256.update ctx (String.sub s cut (String.length s - cut));
      Sha256.finalize ctx = Sha256.digest s)

let prop_blake2s_incremental =
  QCheck.Test.make ~name:"blake2s split-invariant" ~count:300
    QCheck.(
      triple (string_of_size Gen.(0 -- 300)) (int_range 1 32)
        (small_list (int_range 0 130)))
    (fun (s, digest_size, chunks) ->
      let ctx = Blake2s.init ~digest_size () in
      let pos =
        List.fold_left
          (fun pos len ->
            let len = min len (String.length s - pos) in
            Blake2s.update ctx (String.sub s pos len);
            pos + len)
          0 chunks
      in
      Blake2s.update ctx (String.sub s pos (String.length s - pos));
      Blake2s.finalize ctx = Blake2s.digest ~digest_size s)

(* RFC 4493 written out over single AES blocks, independent of [Cmac]. *)
let reference_cmac key msg =
  let aes = Aes128.expand_key key in
  let dbl s =
    let b = Bytes.create 16 in
    for i = 0 to 15 do
      let next = if i = 15 then 0 else Char.code s.[i + 1] lsr 7 in
      Bytes.set b i (Char.chr (((Char.code s.[i] lsl 1) lor next) land 0xff))
    done;
    if Char.code s.[0] land 0x80 <> 0 then
      Bytes.set b 15 (Char.chr (Char.code (Bytes.get b 15) lxor 0x87));
    Bytes.to_string b
  in
  let k1 = dbl (Aes128.encrypt_block aes (String.make 16 '\000')) in
  let k2 = dbl k1 in
  let n = String.length msg in
  let blocks = if n = 0 then 1 else (n + 15) / 16 in
  let tail = String.sub msg (16 * (blocks - 1)) (n - (16 * (blocks - 1))) in
  let last =
    if String.length tail = 16 then Bytes_util.xor tail k1
    else
      Bytes_util.xor
        (tail ^ "\x80" ^ String.make (15 - String.length tail) '\000')
        k2
  in
  let x = ref (String.make 16 '\000') in
  for i = 0 to blocks - 2 do
    x := Aes128.encrypt_block aes (Bytes_util.xor !x (String.sub msg (16 * i) 16))
  done;
  Aes128.encrypt_block aes (Bytes_util.xor !x last)

let prop_cmac_reference =
  QCheck.Test.make ~name:"cmac matches block-wise reference" ~count:300
    QCheck.(pair (string_of_size (Gen.return 16)) (string_of_size Gen.(0 -- 300)))
    (fun (key, msg) -> Cmac.mac (Cmac.of_aes_key key) msg = reference_cmac key msg)

let prop_multiset_permutation =
  QCheck.Test.make ~name:"multiset hash permutation-invariant" ~count:200
    QCheck.(small_list (string_of_size Gen.(0 -- 20)))
    (fun elems ->
      let key = Multiset_hash.key_of_string "0123456789abcdef" in
      let shuffled =
        let a = Array.of_list elems in
        for i = Array.length a - 1 downto 1 do
          let j = (i * 7919) mod (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      Multiset_hash.hash_elements key elems
      = Multiset_hash.hash_elements key shuffled)

let prop_cmac_distinct =
  QCheck.Test.make ~name:"cmac distinguishes messages" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 40)) (string_of_size Gen.(0 -- 40)))
    (fun (a, b) ->
      let k = Cmac.of_aes_key "0123456789abcdef" in
      a = b || Cmac.mac k a <> Cmac.mac k b)

let suite =
  ( "crypto",
    [
      Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
      Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
      Alcotest.test_case "blake2b vectors" `Quick test_blake2b_vectors;
      Alcotest.test_case "blake2s vectors" `Quick test_blake2s_vectors;
      Alcotest.test_case "blake2 multiblock" `Quick test_blake2_multiblock;
      Alcotest.test_case "aes vectors" `Quick test_aes_vectors;
      Alcotest.test_case "aes in-place" `Quick test_aes_in_place;
      Alcotest.test_case "cmac vectors" `Quick test_cmac_vectors;
      Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
      Alcotest.test_case "known answers, lengths 0..300" `Quick test_known_answers;
      Alcotest.test_case "bytes_util" `Quick test_bytes_util;
      Alcotest.test_case "multiset basic" `Quick test_multiset_basic;
      Alcotest.test_case "multiset merge" `Quick test_multiset_merge;
      QCheck_alcotest.to_alcotest prop_hex_roundtrip;
      QCheck_alcotest.to_alcotest prop_xor_involution;
      QCheck_alcotest.to_alcotest prop_sha256_incremental;
      QCheck_alcotest.to_alcotest prop_blake2s_incremental;
      QCheck_alcotest.to_alcotest prop_cmac_reference;
      QCheck_alcotest.to_alcotest prop_multiset_permutation;
      QCheck_alcotest.to_alcotest prop_cmac_distinct;
    ] )
