(** Fixed log-linear latency histograms.

    {2 Bucket layout}

    The layout is a pure function of the bucket index — it never depends
    on the data — so bucket bounds are the same in every export. Values
    are non-negative integers (the service records microseconds):

    - buckets [0..7] are linear: bucket [i] holds exactly the value [i];
    - every octave [[2^k, 2^{k+1})] for [k >= 3] is split into 8
      sub-buckets of width [2^{k-3}], giving a worst-case relative error
      of 12.5% on any estimate;
    - the top octave starts at [2^29]; anything at or above [2^30]
      (~17.9 simulated minutes in microseconds) clamps into the last
      bucket. {!n_buckets} is 224.

    {2 Cost}

    {!record} is two integer array updates and a handful of scalar
    stores under a per-histogram mutex — no allocation, ever, after
    {!create}. Snapshot and estimation functions allocate; they are for
    the stats plane, not the hot path. All operations are thread-safe. *)

type t

val n_buckets : int

(** [bucket_of v] — the bucket index [v] lands in. Pure; negative values
    clamp to bucket 0, values [>= 2^30] to the last bucket. *)
val bucket_of : int -> int

(** Inclusive lower bound of a bucket. *)
val bucket_lo : int -> int

(** Exclusive upper bound of a bucket ([max_int] for the last). *)
val bucket_hi : int -> int

val create : unit -> t

(** Thread-safe, allocation-free. *)
val record : t -> int -> unit

val count : t -> int
val sum : t -> int

(** Largest / smallest recorded value ([0] when empty). *)
val max_value : t -> int

val min_value : t -> int
val mean : t -> float

(** [quantile t q] for [q] in [[0,1]]: the smallest bucket upper bound
    at or below which at least [ceil (q * count)] recorded values lie,
    clamped to the recorded max. Deterministic; [0] when empty. *)
val quantile : t -> float -> int

(** Snapshot of the per-bucket counts (a copy). *)
val counts : t -> int array
