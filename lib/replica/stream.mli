(** Integrity of the replication stream itself.

    Epoch certificates authenticate epoch numbers, not op payloads; the
    stream adds a per-epoch running digest over every op a
    {!Wire.response.Repl_batch} carries, and the boundary record carries an
    HMAC over (epoch, term, digest) under the shared secret. Primary and
    follower fold identically; a single flipped bit in any streamed op (or
    a dropped/injected/reordered op) changes the follower's digest and the
    boundary MAC no longer checks. *)

val empty_digest : string
(** The fold's starting value (32 zero bytes). *)

val fold : string -> epoch:int -> key:string -> value:string option -> string
(** [fold digest ~epoch ~key ~value] chains one op record into the running
    digest. [key] is the raw 32-byte data-key path, as carried on the wire.
    @raise Invalid_argument on wrong digest or key width. *)

val boundary_mac :
  mac_secret:string -> term:int -> epoch:int -> digest:string -> string
(** The [stream_mac] the primary puts in its epoch-boundary record. The
    fencing [term] is covered by the MAC. *)

val check_boundary_mac :
  mac_secret:string -> term:int -> epoch:int -> digest:string -> tag:string ->
  bool
(** Constant-time check of a received boundary MAC. *)
