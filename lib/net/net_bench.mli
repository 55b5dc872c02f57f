(** Closed-loop network benchmark: N clients, each keeping a window of
    pipelined requests in flight against one server, every response
    signature verified client-side. Used by [fastver client-bench] and by
    the bench harness's [repl] figure, which measures verified reads from
    followers. *)

type result = {
  clients : int;
  window : int;
  ops : int;  (** operations completed (all clients) *)
  wall_s : float;
  ops_per_s : float;
  p50_ms : float;  (** per-operation latency percentiles, milliseconds *)
  p99_ms : float;
  mean_ms : float;
  integrity_failures : int;
      (** responses whose signature failed verification — must be 0 against
          an honest server *)
  errors : int;  (** other per-client failures (connection loss etc.) *)
}

val pp_result : Format.formatter -> result -> unit

val run :
  addr:Addr.t ->
  clients:int ->
  window:int ->
  ops:int ->
  db_size:int ->
  ?put_ratio:float ->
  ?verify:bool ->
  ?secret:string ->
  ?seed:int ->
  ?first_client:int ->
  unit ->
  result
(** Each client runs [ops / clients] operations ([put_ratio] of them puts,
    default 0.5) over uniformly random keys in [0, db_size), with [window]
    requests pipelined (default secret/seed: the {!Fastver.Config.default}
    ones). Client ids are [first_client, first_client + clients) (default
    1). Latency is measured send-to-verified-completion per request. *)
