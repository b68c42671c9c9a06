(* Order statistics over float samples. *)

let sorted xs = List.sort Float.compare xs

let percentile p xs = Iced_util.Stats.percentile p xs

let median xs = percentile 50.0 xs

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(values, n=4), so spreads printed here match
   the ones an outside checker computes from the same values. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan, nan)
  | [ x ] -> (x, x, x)
  | s ->
    let data = Array.of_list s in
    let ld = Array.length data in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta)) +. (data.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs q2
