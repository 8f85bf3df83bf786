(* Order statistics for the benchmark's latency samples. *)

(* Nearest-rank percentile: the smallest sample such that at least
   [p]% of the samples are <= it, i.e. the value at 1-based rank
   ceil(p/100 * n) of the sorted samples. *)
let rank ~p n =
  if n <= 0 then invalid_arg "Stat.rank: no samples";
  if p <= 0. || p > 100. then invalid_arg "Stat.rank: p outside (0, 100]";
  max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9))))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile ~p xs =
  let a = sorted xs in
  a.(rank ~p (Array.length a) - 1)

(* Samples ranked strictly after the nearest-rank percentile. *)
let beyond ~p n = n - rank ~p n

(* The smallest sample count for which [p] has at least [k] samples
   beyond it. *)
let min_samples ~p ~k =
  let rec go n = if beyond ~p n >= k then n else go (n + 1) in
  go 1

let median xs = percentile ~p:50. xs
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)
