(** Minimal JSON support for the observability layer.

    The exporter in {!Obs} emits Chrome [trace_event] and metrics JSON by
    hand; this module provides (a) correct string escaping for that
    emitter and (b) a small recursive-descent parser so tests and the CI
    smoke check can verify the emitted documents are well-formed and
    carry the expected schema — without pulling a JSON dependency into
    the tree. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [parse s] parses exactly one JSON document (trailing whitespace
    allowed, trailing garbage rejected). A document nesting more than 64
    arrays/objects is rejected with
    [Error "nesting deeper than 64 at offset K"] as soon as the parser
    reaches the 65th opening bracket, so hostile input cannot drive the
    recursion deep. *)
val parse : string -> (t, string) result

(** A double-quoted JSON string literal with all mandatory escapes. *)
val escape : string -> string

(** Object field lookup (first match). *)
val member : string -> t -> t option

val to_string : t -> string

(** [to_buffer buf j] serializes without materializing intermediate
    strings — the service uses it for frames that embed whole GMT-IR
    programs, where allocation churn is measurable. *)
val to_buffer : Buffer.t -> t -> unit
