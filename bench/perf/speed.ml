(* Machine speed, measured inside every run so that timings taken on a
   shared, noisy host compare across runs.

   The host this benchmark was defined on slows down by up to half for
   seconds to minutes at a time (other tenants; no steal time shows),
   which moves raw wall times far more than the changes the benchmark
   must catch.  A fixed reference task that uses no library code --
   hashing, sorting and a balanced map, allocation-heavy like the mapper
   -- slows down with it: over 12 s windows raw Design.evaluate times
   spread by about 33% (interquartile) while their ratio to the task
   spread by about 4%.  So a run samples the task every [interval]
   seconds and reports a timing at nominal speed: divided by the
   slowdown (median sample duration over [nominal_s]) measured around
   it ([local]) or over its phase ([window]).

   Single-domain workloads sample from a SIGALRM handler, so samples
   fall inside long ops too; the time and allocation a sample takes
   are subtracted from whatever it interrupted.  The serve workloads,
   whose worker domain the handler could land on, sample between
   requests instead, with nothing in flight. *)

module IM = Map.Make (Int)

let reference_task () =
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let h = Hashtbl.create 16 in
  for i = 0 to 2000 do
    Hashtbl.replace h (string_of_int (next ())) i
  done;
  let sorted = List.sort compare (List.init 2000 (fun _ -> next ())) in
  let m = List.fold_left (fun m x -> IM.add (x land 0xffff) x m) IM.empty sorted in
  let acc = IM.fold (fun k v acc -> acc +. sqrt (float_of_int (k + v))) m 0.0 in
  ignore (Sys.opaque_identity (acc, Hashtbl.length h))

(* A typical duration of one sample (two tasks) on the defining
   machine; timings are reported as if every run saw this speed. *)
let nominal_s = 0.0034

let interval = 0.2

let samples : (float * float) list ref = ref []  (* (when, duration), newest first *)
let last = ref neg_infinity
let busy = ref false

(* What sampling has cost so far.  An all-float record is stored flat,
   so updating it allocates nothing outside the measured window. *)
type totals = { mutable spent_s : float; mutable minor_words : float }

let totals = { spent_s = 0.0; minor_words = 0.0 }

let reset () =
  samples := [];
  last := neg_infinity;
  totals.spent_s <- 0.0;
  totals.minor_words <- 0.0

let sample () =
  if not !busy then begin
    (* Gc.minor_words is exact at any point, unlike Gc.allocated_bytes,
       whose minor part only advances at collections, and it returns
       unboxed: a boxing wrapper would allocate after the last reading *)
    let w0 = Gc.minor_words () in
    busy := true;
    let t0 = Tracer.now () in
    reference_task ();
    reference_task ();
    let t1 = Tracer.now () in
    samples := (t0, t1 -. t0) :: !samples;
    last := t1;
    totals.spent_s <- totals.spent_s +. (t1 -. t0);
    busy := false;
    totals.minor_words <- totals.minor_words +. (Gc.minor_words () -. w0)
  end

let due () = Tracer.now () -. !last >= interval

(* Sample on a timer until [f] returns. *)
let sampling f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ())) in
  let timer it = ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = it; it_value = it }) in
  timer interval;
  Fun.protect f ~finally:(fun () ->
      timer 0.0;
      Sys.set_signal Sys.sigalrm previous)

(* [f ()] with its wall time and minor-heap allocation (bytes) net of
   any samples taken meanwhile.  Direct major-heap allocations are not
   counted.  The readings are ordered so that a sample lands wholly
   inside or wholly outside both differences: the counter pairs are
   read with no allocation, hence no signal, between them, and a sample
   run at the poll that follows a clock reading falls after it. *)
let net f =
  let s0 = totals.spent_s in
  let w0 = totals.minor_words in
  let g0 = Gc.minor_words () in
  let t0 = Tracer.now () in
  let r = f () in
  let g1 = Gc.minor_words () in
  let w1 = totals.minor_words in
  let s1 = totals.spent_s in
  let t1 = Tracer.now () in
  (r, t1 -. t0 -. (s1 -. s0), (g1 -. g0 -. (w1 -. w0)) *. float_of_int (Sys.word_size / 8))

let slowdown durations = Sample.median durations /. nominal_s

(* [f ()] and how much slower than nominal the machine was while it
   ran (> 1 is slower), from the samples taken meanwhile. *)
let window f =
  let before = List.length !samples in
  let r = f () in
  let taken = List.filteri (fun i _ -> i < List.length !samples - before) !samples in
  (r, slowdown (List.map snd taken))

(* The slowdown around a time span: from the samples within [reach]
   seconds of [t0, t1], or the [nearest] closest if fewer fall there.
   Host noise comes in bursts of a second or so, so an op is scaled by
   the speed measured around it rather than over the whole run. *)
let reach = 0.5
let nearest = 3

let local () =
  let all = Array.of_list !samples in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) all;
  let n = Array.length all in
  (* first index whose sample is at or after [t] *)
  let rec lower t lo hi =
    if lo >= hi then lo
    else
      let m = (lo + hi) / 2 in
      if fst all.(m) < t then lower t (m + 1) hi else lower t lo m
  in
  fun ~t0 ~t1 ->
    let mid = (t0 +. t1) /. 2.0 in
    let rec widen lo hi =
      if hi - lo >= nearest || (lo = 0 && hi = n) then (lo, hi)
      else if hi = n || (lo > 0 && mid -. fst all.(lo - 1) < fst all.(hi) -. mid) then widen (lo - 1) hi
      else widen lo (hi + 1)
    in
    let lo, hi = widen (lower (t0 -. reach) 0 n) (lower (t1 +. reach) 0 n) in
    slowdown (List.init (hi - lo) (fun i -> snd all.(lo + i)))
