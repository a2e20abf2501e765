(** Cross-process trace propagation for the gmtd service.

    A trace id is an opaque 16-hex-char token the client mints
    ({!genid}) and sends in the request document; the server tags every
    span it records for that request with the id and ships the spans
    back in the reply, where the client re-records them into its local
    {!Obs} sink — one [--trace] file then shows the client's
    round-trip span and the server's per-stage children on separate
    tracks of the same Perfetto timeline.

    {!spans_to_json}/{!spans_of_json} are exact inverses on the span
    fields the Chrome exporter uses (name, cat, timestamps, allocation,
    domain, args), which is what lets a span cross the wire without a
    dedicated wire format. *)

(** Fresh, effectively unique id: 16 lowercase hex chars. *)
val genid : unit -> string

(** The canonical per-request server stage names, in pipeline order:
    decode, fingerprint, cache lookup, compile, verify, simulate,
    encode. Spans with these names are what the stats plane's per-stage
    histograms aggregate and what the traced-request test asserts. *)
val stage_names : string array

val spans_to_json : Obs.span list -> Json.t

(** Decodes an array produced by {!spans_to_json}, dropping malformed
    elements. *)
val spans_of_json : Json.t -> Obs.span list
