module MH = Fastver_crypto.Multiset_hash
module B = Fastver_crypto.Bytes_util
module Sha256 = Fastver_crypto.Sha256
module Registry = Fastver_obs.Registry
module Histogram = Fastver_obs.Histogram

type config = { dir : string; mac_secret : string; segment_bytes : int }

type rref = { seg : int; off : int; len : int }

type state = Active | Sealed | Retired

type segment = {
  id : int;
  path : string;
  mutable state : state;
  mutable data_len : int;  (* committed record bytes, footer excluded *)
  mutable n_records : int;
  summary : MH.t;  (* running multiset over record MACs *)
  mutable live_bytes : int;
  read_lock : Mutex.t;
  read_fd : Unix.file_descr;
  mutable dead_since : int;  (* ckpt_count at retirement, -1 while live *)
}

type t = {
  cfg : config;
  mac_key : Fastver_crypto.Hmac.key;  (* [cfg.mac_secret], pads precomputed *)
  mset_key : MH.key;
  writer_lock : Mutex.t;
  table_lock : Mutex.t;  (* guards [segments] and segment state fields *)
  segments : (int, segment) Hashtbl.t;
  mutable active : segment;
  mutable active_fd : Unix.file_descr;
  mutable next_id : int;
  mutable ckpt_count : int;
  reads : int Atomic.t;
  writes : int Atomic.t;
  gc_rewrites : int Atomic.t;
  scrub_failures : int Atomic.t;
  mutable read_wait : Histogram.t option;
}

(* {2 Crash-fault injection} *)

exception Injected_crash of string

type fault = { after_appends : int; torn : bool }

let armed : fault option ref = ref None
let appends_since_arm = ref 0

let arm_fault f =
  armed := Some f;
  appends_since_arm := 0

let disarm_fault () = armed := None

(* {2 Low-level I/O} *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let really_pread fd ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let buf = Bytes.create len in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = Unix.read fd buf !got (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  if !got < len then Error "cold: short read"
  else Ok (Bytes.unsafe_to_string buf)

let seg_path dir id = Filename.concat dir (Printf.sprintf "seg-%08d.cold" id)

let is_seg_file name =
  String.length name > 4
  && String.sub name 0 4 = "seg-"
  && Filename.check_suffix name ".cold"

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go dir

let mset_key_of_secret secret =
  MH.key_of_string
    (String.sub (Sha256.digest ("fastver-cold-summary\x01" ^ secret)) 0 16)

(* Segment descriptors are close-on-exec: a program this process execs
   never inherits one. *)
let openfile path flags = Unix.openfile path (Unix.O_CLOEXEC :: flags) 0o644

let open_segment_fds path =
  let wfd = openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] in
  let rfd = openfile path [ Unix.O_RDONLY ] in
  (wfd, rfd)

let mk_active_segment ~mset_key ~dir id =
  let path = seg_path dir id in
  let wfd, rfd = open_segment_fds path in
  let seg =
    {
      id;
      path;
      state = Active;
      data_len = 0;
      n_records = 0;
      summary = MH.create mset_key;
      live_bytes = 0;
      read_lock = Mutex.create ();
      read_fd = rfd;
      dead_since = -1;
    }
  in
  (seg, wfd)

let fresh_segment t id =
  let seg, wfd = mk_active_segment ~mset_key:t.mset_key ~dir:t.cfg.dir id in
  Mutex.lock t.table_lock;
  Hashtbl.replace t.segments id seg;
  Mutex.unlock t.table_lock;
  (seg, wfd)

(* {2 Creation and recovery} *)

let create ?(clear_stray = false) cfg =
  if cfg.segment_bytes < Segment.record_overhead then
    Error "cold: segment_bytes too small"
  else begin
    mkdir_p cfg.dir;
    match Sys.readdir cfg.dir with
    | exception Sys_error e -> Error (Printf.sprintf "cold: %s" e)
    | entries ->
        let strays = Array.to_list entries |> List.filter is_seg_file in
        if strays <> [] && not clear_stray then
          Error
            "cold: directory already contains segments; recover from a \
             checkpoint or clear it"
        else begin
          (* Fresh start with no manifest: any leftover segment files were
             never committed by a checkpoint, so they are garbage. *)
          List.iter
            (fun name -> try Sys.remove (Filename.concat cfg.dir name) with _ -> ())
            strays;
          let mset_key = mset_key_of_secret cfg.mac_secret in
          let seg, wfd = mk_active_segment ~mset_key ~dir:cfg.dir 0 in
          let t =
            {
              cfg;
              mac_key = Fastver_crypto.Hmac.key cfg.mac_secret;
              mset_key;
              writer_lock = Mutex.create ();
              table_lock = Mutex.create ();
              segments = Hashtbl.create 16;
              active = seg;
              active_fd = wfd;
              next_id = 1;
              ckpt_count = 0;
              reads = Atomic.make 0;
              writes = Atomic.make 0;
              gc_rewrites = Atomic.make 0;
              scrub_failures = Atomic.make 0;
              read_wait = None;
            }
          in
          Hashtbl.replace t.segments 0 seg;
          Ok t
        end
  end

let seal_active t =
  (* caller holds [writer_lock] *)
  let seg = t.active in
  let footer =
    Segment.encode_footer ~mac_key:t.mac_key
      ~n_records:(Int64.of_int seg.n_records)
      ~data_len:(Int64.of_int seg.data_len)
      ~summary:(MH.value seg.summary)
  in
  ignore (Unix.lseek t.active_fd seg.data_len Unix.SEEK_SET);
  write_all t.active_fd footer;
  Unix.fsync t.active_fd;
  Unix.close t.active_fd;
  Mutex.lock t.table_lock;
  seg.state <- Sealed;
  Mutex.unlock t.table_lock;
  let id = t.next_id in
  t.next_id <- id + 1;
  let seg', wfd = fresh_segment t id in
  t.active <- seg';
  t.active_fd <- wfd

(* {2 Appending} *)

let check_fault t record =
  match !armed with
  | None -> ()
  | Some f ->
      if !appends_since_arm >= f.after_appends then begin
        if f.torn then begin
          let half = String.length record / 2 in
          ignore (Unix.lseek t.active_fd t.active.data_len Unix.SEEK_SET);
          write_all t.active_fd (String.sub record 0 half)
        end;
        disarm_fault ();
        raise (Injected_crash "cold: simulated crash mid-segment-write")
      end
      else incr appends_since_arm

let append t ~key ~aux ~value =
  Mutex.lock t.writer_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.writer_lock) @@ fun () ->
  let record = Segment.encode_record ~mac_key:t.mac_key ~key ~aux ~value in
  let rlen = String.length record in
  match
    begin
      check_fault t record;
      if t.active.data_len > 0 && t.active.data_len + rlen > t.cfg.segment_bytes
      then seal_active t;
      let seg = t.active in
      ignore (Unix.lseek t.active_fd seg.data_len Unix.SEEK_SET);
      write_all t.active_fd record;
      let off = seg.data_len in
      MH.add seg.summary (Segment.record_mac record);
      Mutex.lock t.table_lock;
      seg.data_len <- seg.data_len + rlen;
      seg.n_records <- seg.n_records + 1;
      seg.live_bytes <- seg.live_bytes + rlen;
      Mutex.unlock t.table_lock;
      Atomic.incr t.writes;
      { seg = seg.id; off; len = String.length value }
    end
  with
  | r -> Ok r
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "cold: append failed: %s in %s" (Unix.error_message e) fn)

(* {2 Reading} *)

let find_segment t id =
  Mutex.lock t.table_lock;
  let r = Hashtbl.find_opt t.segments id in
  Mutex.unlock t.table_lock;
  r

let bounds_ok seg r =
  r.off >= 0 && r.len >= 0
  && r.len <= Sys.max_string_length - Segment.record_overhead
  && r.off <= seg.data_len - Segment.record_len ~value_len:r.len

let get t ~key (r : rref) =
  match find_segment t r.seg with
  | None -> Error `Stale
  | Some seg ->
      if not (bounds_ok seg r) then
        Error (`Fail "cold: reference out of segment bounds")
      else begin
        let rlen = Segment.record_len ~value_len:r.len in
        let wait = Fastver_obs.Span.start () in
        Mutex.lock seg.read_lock;
        (match t.read_wait with
        | Some h -> Fastver_obs.Span.finish wait h
        | None -> ());
        let raw =
          Fun.protect ~finally:(fun () -> Mutex.unlock seg.read_lock)
          @@ fun () ->
          try really_pread seg.read_fd ~off:r.off ~len:rlen
          with Unix.Unix_error (e, fn, _) ->
            Error (Printf.sprintf "cold: read failed: %s in %s"
                     (Unix.error_message e) fn)
        in
        Atomic.incr t.reads;
        match raw with
        | Error e -> Error (`Fail e)
        | Ok raw -> (
            match Segment.decode_record ~mac_key:t.mac_key raw with
            | Error e ->
                Atomic.incr t.scrub_failures;
                Error (`Fail e)
            | Ok rec_ ->
                if not (String.equal rec_.Segment.key_enc (Key.encode key))
                then begin
                  Atomic.incr t.scrub_failures;
                  Error (`Fail "cold: record key mismatch (misdirected read)")
                end
                else Ok (rec_.Segment.value, rec_.Segment.aux))
      end

let validate_ref t (r : rref) =
  match find_segment t r.seg with
  | None -> Error (Printf.sprintf "cold: unknown segment %d" r.seg)
  | Some seg when seg.state = Retired ->
      Error (Printf.sprintf "cold: segment %d is retired" r.seg)
  | Some seg ->
      if bounds_ok seg r then Ok ()
      else
        Error
          (Printf.sprintf "cold: reference %d:%d+%d out of bounds" r.seg r.off
             r.len)

(* {2 Liveness accounting} *)

let note_dead t (r : rref) =
  match find_segment t r.seg with
  | None -> ()
  | Some seg ->
      let rlen = Segment.record_len ~value_len:r.len in
      Mutex.lock t.table_lock;
      seg.live_bytes <- max 0 (seg.live_bytes - rlen);
      Mutex.unlock t.table_lock

let note_live t (r : rref) =
  match find_segment t r.seg with
  | None -> ()
  | Some seg ->
      let rlen = Segment.record_len ~value_len:r.len in
      Mutex.lock t.table_lock;
      seg.live_bytes <- min seg.data_len (seg.live_bytes + rlen);
      Mutex.unlock t.table_lock

(* {2 GC / retirement} *)

let unlink_segment t seg =
  (* caller holds [table_lock] *)
  Hashtbl.remove t.segments seg.id;
  (try Unix.close seg.read_fd with Unix.Unix_error _ -> ());
  try Sys.remove seg.path with Sys_error _ -> ()

let gc_candidates t ~min_dead_ratio =
  Mutex.lock t.table_lock;
  let ids =
    Hashtbl.fold
      (fun id seg acc ->
        if seg.state = Sealed && seg.data_len > 0 then
          let dead = float_of_int (seg.data_len - seg.live_bytes) in
          if dead /. float_of_int seg.data_len >= min_dead_ratio then id :: acc
          else acc
        else acc)
      t.segments []
  in
  Mutex.unlock t.table_lock;
  List.sort compare ids

let retire_segments t ids =
  Mutex.lock t.writer_lock;
  Mutex.lock t.table_lock;
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.segments id with
      | Some seg when seg.state = Sealed ->
          if t.ckpt_count = 0 then
            (* never referenced by any manifest: safe to drop now *)
            unlink_segment t seg
          else begin
            seg.state <- Retired;
            seg.dead_since <- t.ckpt_count
          end
      | _ -> ())
    ids;
  Mutex.unlock t.table_lock;
  Mutex.unlock t.writer_lock

let note_gc_rewrite t = Atomic.incr t.gc_rewrites

let note_checkpoint t =
  Mutex.lock t.writer_lock;
  Mutex.lock t.table_lock;
  t.ckpt_count <- t.ckpt_count + 1;
  let doomed =
    Hashtbl.fold
      (fun _ seg acc ->
        if seg.state = Retired && seg.dead_since + 2 <= t.ckpt_count then
          seg :: acc
        else acc)
      t.segments []
  in
  List.iter (unlink_segment t) doomed;
  Mutex.unlock t.table_lock;
  Mutex.unlock t.writer_lock

(* {2 Manifest} *)

let flush t =
  Mutex.lock t.writer_lock;
  (try Unix.fsync t.active_fd with Unix.Unix_error _ -> ());
  Mutex.unlock t.writer_lock

let manifest_encode t =
  Mutex.lock t.writer_lock;
  (try Unix.fsync t.active_fd with Unix.Unix_error _ -> ());
  Mutex.lock t.table_lock;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "fastver-cold-manifest v1\n";
  Buffer.add_string buf (Printf.sprintf "next_id %d\n" t.next_id);
  let segs =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.segments []
    |> List.filter (fun s -> s.state <> Retired)
    |> List.sort (fun a b -> compare a.id b.id)
  in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "seg %d %s %d %d %s\n" s.id
           (match s.state with Active -> "active" | _ -> "sealed")
           s.data_len s.n_records
           (B.to_hex (MH.value s.summary))))
    segs;
  Mutex.unlock t.table_lock;
  Mutex.unlock t.writer_lock;
  Buffer.contents buf

type parsed_seg = {
  p_id : int;
  p_sealed : bool;
  p_data_len : int;
  p_n_records : int;
  p_summary : string;
}

let parse_manifest s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "cold manifest: empty"
  | hdr :: rest ->
      if hdr <> "fastver-cold-manifest v1" then
        Error "cold manifest: unknown header"
      else
        let next_id = ref None in
        let segs = ref [] in
        let err = ref None in
        List.iter
          (fun line ->
            if !err = None then
              match String.split_on_char ' ' line with
              | [ "next_id"; n ] -> (
                  match int_of_string_opt n with
                  | Some n when n >= 0 -> next_id := Some n
                  | _ -> err := Some "cold manifest: bad next_id")
              | [ "seg"; id; st; dl; nr; sum ] -> (
                  match
                    ( int_of_string_opt id,
                      int_of_string_opt dl,
                      int_of_string_opt nr,
                      (try Some (B.of_hex sum) with _ -> None) )
                  with
                  | Some id, Some dl, Some nr, Some sum
                    when id >= 0 && dl >= 0 && nr >= 0
                         && String.length sum = 16 ->
                      let sealed =
                        match st with
                        | "sealed" -> Some true
                        | "active" -> Some false
                        | _ -> None
                      in
                      (match sealed with
                      | None -> err := Some "cold manifest: bad segment state"
                      | Some p_sealed ->
                          segs :=
                            {
                              p_id = id;
                              p_sealed;
                              p_data_len = dl;
                              p_n_records = nr;
                              p_summary = sum;
                            }
                            :: !segs)
                  | _ -> err := Some "cold manifest: bad segment line")
              | _ -> err := Some "cold manifest: unrecognised line")
          rest;
        match (!err, !next_id) with
        | Some e, _ -> Error e
        | None, None -> Error "cold manifest: missing next_id"
        | None, Some next_id -> (
            let segs = List.rev !segs in
            match List.filter (fun p -> not p.p_sealed) segs with
            | [ _ ] -> Ok (next_id, segs)
            | [] -> Error "cold manifest: no active segment"
            | _ -> Error "cold manifest: multiple active segments")

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> Some st_size
  | exception Unix.Unix_error _ -> None

let recover cfg ~manifest =
  match parse_manifest manifest with
  | Error _ as e -> e
  | Ok (next_id, psegs) -> (
      let mset_key = mset_key_of_secret cfg.mac_secret in
      let mac_key = Fastver_crypto.Hmac.key cfg.mac_secret in
      let segments = Hashtbl.create 16 in
      let active = ref None in
      let check_one p =
        let path = seg_path cfg.dir p.p_id in
        match file_size path with
        | None -> Error (Printf.sprintf "cold: segment %d missing" p.p_id)
        | Some size ->
            if p.p_sealed then begin
              if size <> p.p_data_len + Segment.footer_len then
                Error
                  (Printf.sprintf
                     "cold: segment %d size %d, manifest wants %d" p.p_id size
                     (p.p_data_len + Segment.footer_len))
              else
                let rfd = openfile path [ Unix.O_RDONLY ] in
                match
                  really_pread rfd ~off:p.p_data_len ~len:Segment.footer_len
                with
                | Error e ->
                    Unix.close rfd;
                    Error e
                | Ok fbytes -> (
                    match
                      Segment.decode_footer ~mac_key fbytes
                    with
                    | Error e ->
                        Unix.close rfd;
                        Error (Printf.sprintf "cold: segment %d: %s" p.p_id e)
                    | Ok f ->
                        if
                          Int64.to_int f.Segment.n_records <> p.p_n_records
                          || Int64.to_int f.Segment.data_len <> p.p_data_len
                          || not (String.equal f.Segment.summary p.p_summary)
                        then begin
                          Unix.close rfd;
                          Error
                            (Printf.sprintf
                               "cold: segment %d footer disagrees with \
                                manifest"
                               p.p_id)
                        end
                        else begin
                          Hashtbl.replace segments p.p_id
                            {
                              id = p.p_id;
                              path;
                              state = Sealed;
                              data_len = p.p_data_len;
                              n_records = p.p_n_records;
                              summary = MH.of_value mset_key p.p_summary;
                              live_bytes = 0;
                              read_lock = Mutex.create ();
                              read_fd = rfd;
                              dead_since = -1;
                            };
                          Ok ()
                        end)
            end
            else if size < p.p_data_len then
              Error
                (Printf.sprintf
                   "cold: active segment %d shorter than committed length"
                   p.p_id)
            else begin
              (* truncate the uncommitted tail a crash may have torn *)
              let wfd = openfile path [ Unix.O_WRONLY ] in
              Unix.ftruncate wfd p.p_data_len;
              Unix.fsync wfd;
              let rfd = openfile path [ Unix.O_RDONLY ] in
              let seg =
                {
                  id = p.p_id;
                  path;
                  state = Active;
                  data_len = p.p_data_len;
                  n_records = p.p_n_records;
                  summary = MH.of_value mset_key p.p_summary;
                  live_bytes = 0;
                  read_lock = Mutex.create ();
                  read_fd = rfd;
                  dead_since = -1;
                }
              in
              Hashtbl.replace segments p.p_id seg;
              active := Some (seg, wfd);
              Ok ()
            end
      in
      let rec check_all = function
        | [] -> Ok ()
        | p :: rest -> (
            match check_one p with Error _ as e -> e | Ok () -> check_all rest)
      in
      let cleanup () =
        Hashtbl.iter
          (fun _ s -> try Unix.close s.read_fd with Unix.Unix_error _ -> ())
          segments;
        match !active with
        | Some (_, wfd) -> (
            try Unix.close wfd with Unix.Unix_error _ -> ())
        | None -> ()
      in
      match check_all psegs with
      | Error e ->
          cleanup ();
          Error e
      | Ok () -> (
          match !active with
          | None ->
              cleanup ();
              Error "cold manifest: no active segment"
          | Some (active_seg, active_fd) ->
              (* segment files the manifest does not know are uncommitted *)
              (match Sys.readdir cfg.dir with
              | exception Sys_error _ -> ()
              | entries ->
                  Array.iter
                    (fun name ->
                      if is_seg_file name then
                        let known =
                          List.exists
                            (fun p ->
                              seg_path cfg.dir p.p_id
                              = Filename.concat cfg.dir name)
                            psegs
                        in
                        if not known then
                          try Sys.remove (Filename.concat cfg.dir name)
                          with Sys_error _ -> ())
                    entries);
              Ok
                {
                  cfg;
                  mac_key;
                  mset_key;
                  writer_lock = Mutex.create ();
                  table_lock = Mutex.create ();
                  segments;
                  active = active_seg;
                  active_fd;
                  next_id;
                  ckpt_count = 1;
                  reads = Atomic.make 0;
                  writes = Atomic.make 0;
                  gc_rewrites = Atomic.make 0;
                  scrub_failures = Atomic.make 0;
                  read_wait = None;
                }))

(* {2 Scrub} *)

let scrub_segment t seg =
  let fail msg =
    Atomic.incr t.scrub_failures;
    Error (Printf.sprintf "cold: segment %d: %s" seg.id msg)
  in
  match really_pread seg.read_fd ~off:0 ~len:(seg.data_len + Segment.footer_len) with
  | Error e -> fail e
  | Ok raw -> (
      let acc = MH.create t.mset_key in
      let off = ref 0 in
      let count = ref 0 in
      let err = ref None in
      while !err = None && !off < seg.data_len do
        if seg.data_len - !off < Segment.record_overhead then
          err := Some "truncated record header"
        else
          let vlen =
            Int32.to_int
              (Bytes.get_int32_le (Bytes.unsafe_of_string raw) (!off + 42))
          in
          if vlen < 0 || vlen > seg.data_len - !off - Segment.record_overhead
          then err := Some "record length out of bounds"
          else
            let rlen = Segment.record_len ~value_len:vlen in
            let r = String.sub raw !off rlen in
            match Segment.decode_record ~mac_key:t.mac_key r with
            | Error e -> err := Some e
            | Ok _ ->
                MH.add acc (Segment.record_mac r);
                incr count;
                off := !off + rlen
      done;
      match !err with
      | Some e -> fail e
      | None -> (
          let fbytes =
            String.sub raw seg.data_len Segment.footer_len
          in
          match Segment.decode_footer ~mac_key:t.mac_key fbytes with
          | Error e -> fail e
          | Ok f ->
              if Int64.to_int f.Segment.n_records <> !count then
                fail "footer record count disagrees with scan"
              else if not (MH.equal_value (MH.value acc) f.Segment.summary)
              then fail "footer summary disagrees with record MACs"
              else Ok ()))

let scrub t =
  Mutex.lock t.table_lock;
  let sealed =
    Hashtbl.fold
      (fun _ s acc -> if s.state = Sealed then s :: acc else acc)
      t.segments []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  Mutex.unlock t.table_lock;
  let rec go = function
    | [] -> Ok ()
    | s :: rest -> (
        match scrub_segment t s with Error _ as e -> e | Ok () -> go rest)
  in
  go sealed

(* {2 Stats and metrics} *)

type stats = {
  segments : int;
  dead_segments : int;
  live_bytes : int;
  dead_bytes : int;
  reads : int;
  writes : int;
  gc_rewrites : int;
  scrub_failures : int;
}

let stats t =
  Mutex.lock t.table_lock;
  let segments = ref 0 and dead_segments = ref 0 in
  let live = ref 0 and dead = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      match s.state with
      | Retired ->
          incr dead_segments;
          dead := !dead + s.data_len
      | Active | Sealed ->
          incr segments;
          live := !live + s.live_bytes;
          dead := !dead + (s.data_len - s.live_bytes))
    t.segments;
  Mutex.unlock t.table_lock;
  {
    segments = !segments;
    dead_segments = !dead_segments;
    live_bytes = !live;
    dead_bytes = !dead;
    reads = Atomic.get t.reads;
    writes = Atomic.get t.writes;
    gc_rewrites = Atomic.get t.gc_rewrites;
    scrub_failures = Atomic.get t.scrub_failures;
  }

let close t =
  Mutex.lock t.writer_lock;
  (try Unix.close t.active_fd with Unix.Unix_error _ -> ());
  Mutex.lock t.table_lock;
  Hashtbl.iter
    (fun _ s -> try Unix.close s.read_fd with Unix.Unix_error _ -> ())
    t.segments;
  Hashtbl.reset t.segments;
  Mutex.unlock t.table_lock;
  Mutex.unlock t.writer_lock

let wire_metrics t reg =
  let stat f = match t with None -> 0 | Some c -> f (stats c) in
  Registry.gauge_fn reg "fastver_cold_segments"
    ~help:"Live cold segments (active + sealed)" (fun () ->
      float_of_int (stat (fun s -> s.segments)));
  Registry.gauge_fn reg "fastver_cold_dead_segments"
    ~help:"Retired cold segments awaiting unlink" (fun () ->
      float_of_int (stat (fun s -> s.dead_segments)));
  Registry.gauge_fn reg "fastver_cold_live_bytes"
    ~help:"Bytes of cold records still referenced by the index" (fun () ->
      float_of_int (stat (fun s -> s.live_bytes)));
  Registry.gauge_fn reg "fastver_cold_dead_bytes"
    ~help:"Bytes of superseded cold records awaiting compaction" (fun () ->
      float_of_int (stat (fun s -> s.dead_bytes)));
  Registry.counter_fn reg "fastver_cold_reads_total"
    ~help:"Authenticated cold-tier reads" (fun () -> stat (fun s -> s.reads));
  Registry.counter_fn reg "fastver_cold_writes_total"
    ~help:"Records demoted to the cold tier" (fun () ->
      stat (fun s -> s.writes));
  Registry.counter_fn reg "fastver_cold_gc_rewrites_total"
    ~help:"Live records rewritten by cold compaction" (fun () ->
      stat (fun s -> s.gc_rewrites));
  Registry.counter_fn reg "fastver_cold_scrub_failures_total"
    ~help:"Integrity-check failures in cold reads and scrubs" (fun () ->
      stat (fun s -> s.scrub_failures));
  let h =
    Registry.histogram reg ~scale:1e-9
      ~help:"Wait for a per-segment cold read lock"
      "fastver_cold_read_wait_seconds"
  in
  match t with Some c -> c.read_wait <- Some h | None -> ()
