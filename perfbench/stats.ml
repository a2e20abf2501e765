(* Order statistics shared by every workload. Quartiles follow Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so the
   spreads printed here match the ones a reader recomputes from the raw
   per-run values. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median_sorted a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs = median_sorted (sorted xs)

(* statistics.quantiles(data, n=4, method='exclusive'). *)
let quartiles_sorted a =
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let summary xs =
  let a = sorted xs in
  let q1, q3 = quartiles_sorted a in
  { median = median_sorted a; q1; q3; n = Array.length a }

(* The tail reported beside every median: the highest of these
   percentiles that still has at least [min_beyond] samples above it.
   Phases issue a fixed number of requests, so a workload always lands
   on the same percentile. *)
let tail_candidates = [ 99.9; 99.5; 99.; 98.; 95.; 90.; 75.; 50. ]
let min_beyond = 10

let tail_index ~n p =
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
  max 0 (min (n - 1) k)

let tail_percentile n =
  match
    List.find_opt
      (fun p -> n - 1 - tail_index ~n p >= min_beyond)
      tail_candidates
  with
  | Some p -> p
  | None -> 50.

(* [tail xs] = (percentile, value, sample count). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (50., nan, 0)
  else
    let p = tail_percentile n in
    (p, a.(tail_index ~n p), n)

(* The [p]th percentile of [xs] (0 when empty). *)
let tail_at xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0. else a.(tail_index ~n p)

let sum xs = List.fold_left ( +. ) 0. xs
let geomean xs = exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* On a shared host interference only ever slows a fixed computation
   down, so a run reports the favourable quartile of its repeated
   timings: the lower quartile of times, the upper quartile of rates. *)
let best_time xs =
  match sorted xs with
  | [||] -> nan
  | [| x |] -> x
  | a -> fst (quartiles_sorted a)

let best_rate xs =
  match sorted xs with
  | [||] -> nan
  | [| x |] -> x
  | a -> snd (quartiles_sorted a)
