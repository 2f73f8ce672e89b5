let sorted values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array; [q] in [0, 1]. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median values = percentile (sorted (Array.of_list values)) 0.5

(* The quartiles Python's [statistics.quantiles(values, n=4)] returns
   (its default "exclusive" method), so spreads computed here match the
   ones computed from the printed results by any other tool. *)
let quartiles values =
  let d = sorted (Array.of_list values) in
  let n = Array.length d in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)
