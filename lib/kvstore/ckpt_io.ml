exception Injected_crash of string

type fault =
  | Die_after_bytes of int
  | Die_before_fsync of string
  | Die_before_rename of string

(* The armed fault and the cumulative byte counter live in module state so
   that one plan covers a whole multi-file checkpoint (core writes the data,
   tree, sealed and tpm files plus the manifest through this module). *)
let armed : fault option ref = ref None
let written = ref 0

let arm f =
  armed := Some f;
  written := 0

let disarm () = armed := None
let bytes_written () = !written

let crash msg = raise (Injected_crash msg)

(* Every byte a writer streams also feeds its SHA-256, so a component's
   manifest entry comes from the write itself and is never read back. *)
type writer = {
  oc : out_channel;
  final : string;
  sha : Fastver_crypto.Sha256.ctx;
  mutable size : int;
}

type digest = { size : int; sha256_hex : string }

let write (w : writer) s =
  let len = String.length s in
  (match !armed with
  | Some (Die_after_bytes n) when !written + len > n ->
      (* The bytes up to the cut point made it into the temp file; the rest
         of the process never ran. *)
      let allowed = max 0 (n - !written) in
      output_substring w.oc s 0 allowed;
      flush w.oc;
      written := n;
      crash (Printf.sprintf "after %d bytes (in %s)" n
               (Filename.basename w.final))
  | _ -> ());
  output_string w.oc s;
  Fastver_crypto.Sha256.update w.sha s;
  w.size <- w.size + len;
  written := !written + len

let write_bytes w b = write w (Bytes.unsafe_to_string b)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let with_atomic_file path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let w = { oc; final = path; sha = Fastver_crypto.Sha256.init (); size = 0 } in
  let () =
    match f w with
    | () -> ()
    | exception e ->
        (* A real crash leaves the torn temp file behind; so do we. The
           committed name is untouched either way. *)
        close_out_noerr oc;
        raise e
  in
  flush oc;
  let base = Filename.basename path in
  (match !armed with
  | Some (Die_before_fsync name) when name = base ->
      (* Unsynced data may never reach disk: model the crash by tearing the
         temp file's tail off before "dying". *)
      let size = out_channel_length oc in
      close_out_noerr oc;
      (try Unix.truncate tmp (size / 2) with Unix.Unix_error _ -> ());
      crash ("before fsync of " ^ base)
  | _ -> ());
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  (match !armed with
  | Some (Die_before_rename name) when name = base ->
      crash ("before rename of " ^ base)
  | _ -> ());
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path);
  {
    size = w.size;
    sha256_hex =
      Fastver_crypto.Bytes_util.to_hex (Fastver_crypto.Sha256.finalize w.sha);
  }

let write_file_atomic path contents =
  with_atomic_file path (fun w -> write w contents)

(* ------------------------------------------------------------------ *)
(* Manifests and generations                                           *)
(* ------------------------------------------------------------------ *)

let sha256_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let ctx = Fastver_crypto.Sha256.init () in
          let buf = Bytes.create 65536 in
          let rec loop () =
            match input ic buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
                Fastver_crypto.Sha256.update_bytes ctx buf 0 n;
                loop ()
          in
          loop ();
          Ok
            (Fastver_crypto.Bytes_util.to_hex
               (Fastver_crypto.Sha256.finalize ctx)))

module Manifest = struct
  type entry = { name : string; size : int; sha256_hex : string }

  type t = {
    generation : int;
    parent : (int * string) option;
    entries : entry list;
  }

  let filename = "MANIFEST"

  (* FVMANIFEST2 adds the parent line: a delta generation names its parent
     and the SHA-256 of the parent's MANIFEST, so every link of a chain is
     committed by its child. *)
  let magic = "FVMANIFEST2"
  let legacy_magics = [ "FVMANIFEST1" ]

  let entry_of_file ~dir name =
    let path = Filename.concat dir name in
    match sha256_file path with
    | Error e -> Error e
    | Ok sha256_hex -> (
        match (Unix.stat path).Unix.st_size with
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | size -> Ok { name; size; sha256_hex })

  let encode m =
    let buf = Buffer.create 256 in
    Buffer.add_string buf magic;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Printf.sprintf "generation %d\n" m.generation);
    (match m.parent with
    | None -> Buffer.add_string buf "parent none\n"
    | Some (g, sha) -> Buffer.add_string buf (Printf.sprintf "parent %d %s\n" g sha));
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "%s %d %s\n" e.sha256_hex e.size e.name))
      m.entries;
    Buffer.contents buf

  let write ~dir m =
    ignore (write_file_atomic (Filename.concat dir filename) (encode m))

  let is_hex s =
    String.length s = 64
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

  let read ~dir =
    let path = Filename.concat dir filename in
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              let raw = really_input_string ic (in_channel_length ic) in
              match String.split_on_char '\n' raw with
              | m :: gen_line :: parent_line :: rest when m = magic ->
                  let generation =
                    match String.split_on_char ' ' gen_line with
                    | [ "generation"; n ] -> int_of_string n
                    | _ -> failwith "manifest: bad generation line"
                  in
                  if generation < 0 then failwith "manifest: bad generation";
                  let parent =
                    match String.split_on_char ' ' parent_line with
                    | [ "parent"; "none" ] -> None
                    | [ "parent"; n; sha ] when is_hex sha ->
                        let n = int_of_string n in
                        if n < 0 || n >= generation then
                          failwith "manifest: bad parent generation";
                        Some (n, sha)
                    | _ -> failwith "manifest: bad parent line"
                  in
                  let entries =
                    List.filter_map
                      (fun line ->
                        if line = "" then None
                        else
                          match String.split_on_char ' ' line with
                          | [ sha256_hex; size; name ]
                            when String.length sha256_hex = 64
                                 && name <> "" ->
                              let size = int_of_string size in
                              if size < 0 then
                                failwith "manifest: negative size";
                              Some { name; size; sha256_hex }
                          | _ -> failwith "manifest: bad entry line")
                      rest
                  in
                  if entries = [] then failwith "manifest: no entries";
                  Ok { generation; parent; entries }
              | _ -> Error "manifest: bad magic"
            with
            | End_of_file -> Error "manifest truncated"
            | Failure e -> Error e)

  let legacy ~dir =
    let path = Filename.concat dir filename in
    match In_channel.with_open_bin path In_channel.input_line with
    | Some line when List.mem line legacy_magics -> Some line
    | Some _ | None | (exception Sys_error _) -> None

  let verify ~dir m =
    List.fold_left
      (fun acc e ->
        Result.bind acc (fun () ->
            match entry_of_file ~dir e.name with
            | Error err ->
                Error (Printf.sprintf "manifest: %s: %s" e.name err)
            | Ok actual ->
                if actual.size <> e.size then
                  Error
                    (Printf.sprintf
                       "manifest: %s: size %d, expected %d" e.name
                       actual.size e.size)
                else if not (String.equal actual.sha256_hex e.sha256_hex)
                then
                  Error (Printf.sprintf "manifest: %s: checksum mismatch"
                           e.name)
                else Ok ()))
      (Ok ()) m.entries
end

let generation_prefix = "ckpt-"
let generation_dir_name n = Printf.sprintf "%s%d" generation_prefix n

let generations dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             let plen = String.length generation_prefix in
             if
               String.length name > plen
               && String.sub name 0 plen = generation_prefix
             then
               match
                 int_of_string_opt
                   (String.sub name plen (String.length name - plen))
               with
               | Some n when n >= 0 ->
                   let path = Filename.concat dir name in
                   if Sys.is_directory path then Some (n, path) else None
               | _ -> None
             else None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      (match Sys.readdir path with
      | exception Sys_error _ -> ()
      | names ->
          Array.iter
            (fun name -> remove_tree (Filename.concat path name))
            names);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
