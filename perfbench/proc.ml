(* The system's processes: spawn `fastver serve` / `fastver follow`, wait
   for readiness, read their peak RSS and CPU time from /proc, and make
   sure none outlives the benchmark. *)

external now : unit -> (float[@unboxed]) = "fvbench_now_byte" "fvbench_now"
[@@noalloc]
(** Monotonic seconds. *)

let cli = Filename.concat "_build" (Filename.concat "default" "bin/fastver_cli.exe")

let live : (int * string) list ref = ref []

let spawn ~log name args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) null fd fd
  in
  Unix.close fd;
  Unix.close null;
  live := (pid, name) :: !live;
  pid

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun (p, _) -> p <> pid) !live

let kill ?(signal = Sys.sigkill) pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  reap pid

let kill_all () = List.iter (fun (pid, _) -> kill pid) !live

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
      live := List.filter (fun (p, _) -> p <> pid) !live;
      false
  | exception Unix.Unix_error _ -> false

(* Readiness is the first successful connect: the listener is bound only
   after the store is loaded, so a refused or missing socket means "not
   yet". The 1 ms retry is far below the load times being measured. *)
let connect_when_ready ~pid ~name ?(timeout = 120.0) addr =
  let deadline = now () +. timeout in
  let rec go () =
    match Fastver_net.Client.connect addr with
    | Ok c -> c
    | Error e ->
        if not (alive pid) then failwith (name ^ " exited during start-up: " ^ e);
        if now () > deadline then failwith (name ^ " not ready: " ^ e);
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* utime + stime in seconds (fields 14 and 15 of /proc/<pid>/stat, in
   clock ticks of 1/100 s on Linux). *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after_comm = String.rindex stat ')' + 2 in
  let fields =
    String.split_on_char ' '
      (String.sub stat after_comm (String.length stat - after_comm))
  in
  (* fields.(0) is field 3 (state) *)
  let f i = float_of_string (List.nth fields (i - 3)) in
  (f 14 +. f 15) /. 100.0

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* Total size of the files under [path]. *)
let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0
        (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let wait pid =
  let status =
    try snd (Unix.waitpid [] pid) with Unix.Unix_error _ -> Unix.WEXITED 255
  in
  live := List.filter (fun (p, _) -> p <> pid) !live;
  status

(* Graceful stop: SIGTERM and the exit status. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait pid

(* Index of the first occurrence of [needle] in [hay]. *)
let find_sub hay needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length hay then raise Not_found
    else if String.sub hay i n = needle then i
    else go (i + 1)
  in
  go 0

(* CPU time the hypervisor has stolen from this VM so far, in seconds
   summed over its vCPUs (the steal column of /proc/stat, in 1/100 s).
   On a shared host it comes in bursts of seconds to minutes, and it stalls
   the whole served path: every stage of a closed loop waits on the stage
   whose vCPU is stolen. *)
let stolen_s () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match String.split_on_char ' ' line |> List.filter (fun x -> x <> "") with
  | "cpu" :: _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
      float_of_string steal /. 100.0
  | _ -> failwith "unexpected /proc/stat"
