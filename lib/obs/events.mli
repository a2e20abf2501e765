(** Structured JSONL event log: severity and a bounded ring.

    Every event renders as one JSON line
    [{"ts": …, "severity": "warn", "kind": "cache.corrupt", …fields}]
    and lands in a bounded in-process ring buffer of {!capacity} lines
    (oldest dropped first); an optional sink additionally receives each
    line the moment it is emitted — the daemon points it at stderr so
    degraded states (evictions, corrupt-entry recoveries, fallbacks,
    drain) are visible in the log, not just in post-mortem queries.

    State is process-global; {!Obs.reset} calls {!reset}. *)

type severity = Debug | Info | Warn | Error

(** [emit ~kind fields] — record one event, default severity [Info].
    Fields are appended to the rendered object after [ts], [severity]
    and [kind]; field order is preserved. *)
val emit : ?severity:severity -> kind:string -> (string * Json.t) list -> unit

(** Ring size in lines (256). *)
val capacity : int

(** Ring contents, oldest first. Each parses as one JSON object. *)
val recent : unit -> string list

(** Sink for every emitted line (e.g. [prerr_endline]); [None] disables. *)
val set_sink : (string -> unit) option -> unit

(** Drop all events and disable the sink. *)
val reset : unit -> unit
