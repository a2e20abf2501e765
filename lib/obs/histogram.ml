(* Log-linear layout: 8 linear buckets for 0..7, then 8 sub-buckets per
   power-of-two octave up to 2^30, overflow clamped into the last
   bucket. 8 + 27 * 8 = 224 buckets; worst-case relative error 1/8. *)

let sub_bits = 3
let sub = 1 lsl sub_bits (* 8 *)
let max_octave = 29 (* top octave [2^29, 2^30) *)
let n_buckets = sub + ((max_octave - sub_bits + 1) * sub)

let bucket_of v =
  if v < sub then if v < 0 then 0 else v
  else begin
    (* k = index of the highest set bit of v (>= sub_bits here). *)
    let k = ref sub_bits in
    let x = ref (v lsr sub_bits) in
    while !x > 1 do
      incr k;
      x := !x lsr 1
    done;
    if !k > max_octave then n_buckets - 1
    else sub + ((!k - sub_bits) * sub) + ((v lsr (!k - sub_bits)) - sub)
  end

let bucket_lo i =
  if i < sub then i
  else begin
    let o = ((i - sub) / sub) + sub_bits in
    let s = (i - sub) mod sub in
    (1 lsl o) + (s lsl (o - sub_bits))
  end

let bucket_hi i = if i >= n_buckets - 1 then max_int else bucket_lo (i + 1)

type t = {
  lock : Mutex.t;
  buckets : int array;
  mutable n : int;
  mutable total : int;
  mutable vmax : int;
  mutable vmin : int;
}

let create () =
  {
    lock = Mutex.create ();
    buckets = Array.make n_buckets 0;
    n = 0;
    total = 0;
    vmax = 0;
    vmin = max_int;
  }

let record t v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of v in
  Mutex.lock t.lock;
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.n <- t.n + 1;
  t.total <- t.total + v;
  if v > t.vmax then t.vmax <- v;
  if v < t.vmin then t.vmin <- v;
  Mutex.unlock t.lock

let locked t f = Mutex.protect t.lock f

let count t = locked t (fun () -> t.n)
let sum t = locked t (fun () -> t.total)
let max_value t = locked t (fun () -> t.vmax)
let min_value t = locked t (fun () -> if t.n = 0 then 0 else t.vmin)

let mean t =
  locked t (fun () ->
      if t.n = 0 then 0.0 else float_of_int t.total /. float_of_int t.n)

let quantile t q =
  locked t (fun () ->
      if t.n = 0 then 0
      else begin
        let q = Float.max 0.0 (Float.min 1.0 q) in
        let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
        let cum = ref 0 and i = ref 0 and res = ref t.vmax in
        (try
           while !i < n_buckets do
             cum := !cum + t.buckets.(!i);
             if !cum >= rank then begin
               (* Upper bound of the winning bucket, clamped to the real
                  max so a sparse tail never over-reports. *)
               res := min (bucket_hi !i - 1) t.vmax;
               raise Exit
             end;
             incr i
           done
         with Exit -> ());
        !res
      end)

let counts t = locked t (fun () -> Array.copy t.buckets)
