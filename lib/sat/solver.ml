(* CDCL with two watched literals, 1-UIP learning, VSIDS activities on
   an indexed max-heap (ties broken by variable index, so the search
   order is a pure function of the clause stream and the seed), phase
   saving, and Luby restarts.  No clause deletion: instances here are
   small and budgets bound the learned-clause population.

   Storage is flat ints.  A clause of three or more literals lives in
   one growable arena as its size followed by its literals, and is
   named by the offset of its size; its first two literals are the
   watched ones, reordered in place as watches move.  A binary clause
   never moves its watches, so it has no arena slot: each of its two
   watch entries carries the other literal.  Watch entries, reasons and
   conflicts share one tagged encoding: [2 * offset] for an arena
   clause, [2 * lit + 1] for a binary clause seen from one of its
   literals, with [lit] the other one.

   A watch list is an int array whose last entry is its head: entries
   are pushed at the end and visited from the end down.  Propagation
   pushes the entries it keeps, in visit order, onto a spare array (on
   a conflict the unvisited rest follows them, in order) and copies
   that back as the list.  This is the order in which a list solver
   that re-conses each kept clause onto the literal's list would visit
   them, so the trail, conflicts and learned clauses are that solver's.
   Propagation, analysis and learning allocate nothing once the arena,
   the lists and the scratch arrays have grown to size. *)

type lit = int
type outcome = Sat | Unsat | Unknown

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned : int;
}

type t = {
  mutable nvars : int;
  mutable unsat : bool;
  mutable nclauses : int;
  (* clause arena: size, then literals, per clause *)
  mutable arena : int array;
  mutable arena_n : int;
  (* per-literal watch lists: entries 0 .. wn.(l) - 1, head last *)
  mutable watches : int array array;
  mutable wn : int array;
  mutable spare : int array;
  (* per-variable state *)
  mutable assign : int array;  (* -1 unassigned, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : int array;  (* tagged clause, -1 for none *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable phase_inited : int;  (* vars below this had their phase seeded *)
  mutable seen : Bytes.t;
  (* trail *)
  mutable trail : int array;
  mutable trail_n : int;
  mutable trail_lim : int array;
  mutable trail_lim_n : int;
  mutable qhead : int;
  (* the false watched literal of a binary conflict, its second *)
  mutable confl_lit : int;
  (* scratch: add_clause's literals or the learned clause (the first
     [learnt_n]), a binary clause's literals for analysis, seen vars *)
  mutable buf : int array;
  mutable learnt_n : int;
  pair : int array;
  mutable to_clear : int array;
  (* VSIDS heap of candidate decision variables *)
  mutable heap : int array;
  mutable heap_n : int;
  mutable heap_pos : int array;
  var_inc : float array;  (* one cell, so bumping it allocates nothing *)
  stats : stats;
}

let pos v = 2 * v
let neg v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1

let create () =
  {
    nvars = 0;
    unsat = false;
    nclauses = 0;
    arena = Array.make 64 0;
    arena_n = 0;
    watches = Array.make 16 [||];
    wn = Array.make 16 0;
    spare = [||];
    assign = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    phase = Array.make 8 false;
    phase_inited = 0;
    seen = Bytes.make 8 '\000';
    trail = Array.make 8 0;
    trail_n = 0;
    trail_lim = Array.make 9 0;
    trail_lim_n = 0;
    qhead = 0;
    confl_lit = -1;
    buf = Array.make 16 0;
    learnt_n = 0;
    pair = Array.make 2 0;
    to_clear = Array.make 8 0;
    heap = Array.make 8 0;
    heap_n = 0;
    heap_pos = Array.make 8 (-1);
    var_inc = [| 1.0 |];
    stats =
      { conflicts = 0; decisions = 0; propagations = 0; restarts = 0; learned = 0 };
  }

let var_count t = t.nvars
let clause_count t = t.nclauses
let stats t = t.stats

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_capacity t v =
  let cap = Array.length t.assign in
  if v >= cap then begin
    let n = max (2 * cap) (v + 1) in
    t.assign <- grow t.assign n (-1);
    t.level <- grow t.level n 0;
    t.reason <- grow t.reason n (-1);
    t.activity <- grow t.activity n 0.0;
    t.phase <- grow t.phase n false;
    t.trail <- grow t.trail n 0;
    t.trail_lim <- grow t.trail_lim (n + 1) 0;
    t.to_clear <- grow t.to_clear n 0;
    t.heap <- grow t.heap n 0;
    t.heap_pos <- grow t.heap_pos n (-1);
    let s = Bytes.make n '\000' in
    Bytes.blit t.seen 0 s 0 (Bytes.length t.seen);
    t.seen <- s;
    t.watches <- grow t.watches (2 * n) [||];
    t.wn <- grow t.wn (2 * n) 0
  end

let new_var t =
  let v = t.nvars in
  ensure_capacity t v;
  t.nvars <- v + 1;
  v

(* 1 = true, 0 = false, -1 = unassigned, for a literal *)
let lit_value t l =
  let v = t.assign.(l lsr 1) in
  if v < 0 then -1 else v lxor (l land 1)

let push_watch t l e =
  let ws = t.watches.(l) and n = t.wn.(l) in
  if n = Array.length ws then begin
    let ws' = Array.make (max 4 (2 * n)) 0 in
    Array.blit ws 0 ws' 0 n;
    ws'.(n) <- e;
    t.watches.(l) <- ws'
  end
  else ws.(n) <- e;
  t.wn.(l) <- n + 1

let attach_binary t a b =
  push_watch t a ((b lsl 1) lor 1);
  push_watch t b ((a lsl 1) lor 1)

(* Copy [len] literals of [src] from [off] into the arena and watch its
   first two; the result is the tagged clause. *)
let attach_long t src off len =
  let need = t.arena_n + 1 + len in
  if need > Array.length t.arena then
    t.arena <- grow t.arena (max need (2 * Array.length t.arena)) 0;
  let c = t.arena_n in
  t.arena.(c) <- len;
  Array.blit src off t.arena (c + 1) len;
  t.arena_n <- need;
  let e = c lsl 1 in
  push_watch t src.(off) e;
  push_watch t src.(off + 1) e;
  e

(* heap order: higher activity first, lower index first on ties *)
let heap_before t a b =
  t.activity.(a) > t.activity.(b)
  || (t.activity.(a) = t.activity.(b) && a < b)

let rec percolate_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let v = t.heap.(i) and pv = t.heap.(p) in
    if heap_before t v pv then begin
      t.heap.(i) <- pv;
      t.heap_pos.(pv) <- i;
      t.heap.(p) <- v;
      t.heap_pos.(v) <- p;
      percolate_up t p
    end
  end

let rec percolate_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_n && heap_before t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_n && heap_before t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    let a = t.heap.(i) and b = t.heap.(!best) in
    t.heap.(i) <- b;
    t.heap_pos.(b) <- i;
    t.heap.(!best) <- a;
    t.heap_pos.(a) <- !best;
    percolate_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap.(t.heap_n) <- v;
    t.heap_pos.(v) <- t.heap_n;
    t.heap_n <- t.heap_n + 1;
    percolate_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_n <- t.heap_n - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_n > 0 then begin
    let last = t.heap.(t.heap_n) in
    t.heap.(0) <- last;
    t.heap_pos.(last) <- 0;
    percolate_down t 0
  end;
  v

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc.(0);
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc.(0) <- t.var_inc.(0) *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then percolate_up t t.heap_pos.(v)

let var_decay t = t.var_inc.(0) <- t.var_inc.(0) /. 0.95

let enqueue t l reason =
  let v = l lsr 1 in
  t.assign.(v) <- 1 - (l land 1);
  t.level.(v) <- t.trail_lim_n;
  t.reason.(v) <- reason;
  t.trail.(t.trail_n) <- l;
  t.trail_n <- t.trail_n + 1

let cancel_until t lvl =
  if t.trail_lim_n > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_n - 1 downto bound do
      let l = t.trail.(i) in
      let v = l lsr 1 in
      t.phase.(v) <- l land 1 = 0;
      t.assign.(v) <- -1;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_n <- bound;
    t.trail_lim_n <- lvl;
    t.qhead <- bound
  end

(* Unit propagation: the conflicting clause (tagged), or -1. *)
let propagate t =
  let confl = ref (-1) in
  while !confl < 0 && t.qhead < t.trail_n do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let false_lit = p lxor 1 in
    let ws = t.watches.(false_lit) and n = t.wn.(false_lit) in
    if Array.length t.spare < n then
      t.spare <- Array.make (max n (2 * Array.length t.spare)) 0;
    let kept = t.spare in
    let j = ref 0 and i = ref (n - 1) in
    while !i >= 0 do
      let e = ws.(!i) in
      decr i;
      if e land 1 = 1 then begin
        (* binary: never moves, the entry holds the other literal *)
        let first = e lsr 1 in
        kept.(!j) <- e;
        incr j;
        let v = lit_value t first in
        if v = 0 then begin
          t.confl_lit <- false_lit;
          confl := e
        end
        else if v < 0 then begin
          t.stats.propagations <- t.stats.propagations + 1;
          enqueue t first ((false_lit lsl 1) lor 1)
        end
      end
      else begin
        let a = t.arena and c = e lsr 1 in
        if a.(c + 1) = false_lit then begin
          a.(c + 1) <- a.(c + 2);
          a.(c + 2) <- false_lit
        end;
        let first = a.(c + 1) in
        if lit_value t first = 1 then begin
          (* satisfied by the other watch: keep watching false_lit *)
          kept.(!j) <- e;
          incr j
        end
        else begin
          let stop = c + 1 + a.(c) in
          let k = ref (c + 3) in
          while !k < stop && lit_value t a.(!k) = 0 do incr k done;
          if !k < stop then begin
            (* move the watch to a non-false literal *)
            let w = a.(!k) in
            a.(c + 2) <- w;
            a.(!k) <- false_lit;
            push_watch t w e
          end
          else begin
            kept.(!j) <- e;
            incr j;
            if lit_value t first = 0 then confl := e
            else begin
              t.stats.propagations <- t.stats.propagations + 1;
              enqueue t first e
            end
          end
        end
      end;
      if !confl >= 0 then begin
        (* conflict: keep the unvisited rest, in visit order *)
        while !i >= 0 do
          kept.(!j) <- ws.(!i);
          incr j;
          decr i
        done;
        t.qhead <- t.trail_n
      end
    done;
    for x = 0 to !j - 1 do
      ws.(x) <- kept.(x)
    done;
    t.wn.(false_lit) <- !j
  done;
  !confl

(* 1-UIP conflict analysis.  Leaves the learned clause in
   [t.buf.(0 .. t.learnt_n - 1)], asserting literal first and the others
   in reverse order of discovery, and returns the backjump level.
   Relies on the invariant that an arena reason has its propagated
   literal first (true for both propagate and learned-clause
   assertion); a binary reason carries its one other literal. *)
let analyze t confl0 =
  let learnt_n = ref 1 and cleared = ref 0 in
  let btlevel = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let c = ref confl0 in
  let index = ref (t.trail_n - 1) in
  let continue = ref true in
  while !continue do
    (* read all of the conflict, and all of a reason but its first,
       the propagated literal *)
    let cl = !c in
    let long = cl land 1 = 0 in
    let lits = if long then t.arena else t.pair in
    let lo, hi =
      if long then
        let off = cl lsr 1 in
        ((if !p < 0 then off + 1 else off + 2), off + t.arena.(off))
      else begin
        t.pair.(0) <- cl lsr 1;
        t.pair.(1) <- t.confl_lit;
        (0, if !p < 0 then 1 else 0)
      end
    in
    for i = lo to hi do
      let q = lits.(i) in
      let v = q lsr 1 in
      if Bytes.get t.seen v = '\000' && t.level.(v) > 0 then begin
        Bytes.set t.seen v '\001';
        t.to_clear.(!cleared) <- v;
        incr cleared;
        var_bump t v;
        if t.level.(v) >= t.trail_lim_n then incr counter
        else begin
          if !learnt_n = Array.length t.buf then t.buf <- grow t.buf (2 * !learnt_n) 0;
          t.buf.(!learnt_n) <- q;
          incr learnt_n;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    while Bytes.get t.seen (t.trail.(!index) lsr 1) = '\000' do
      decr index
    done;
    let pl = t.trail.(!index) in
    decr index;
    p := pl;
    Bytes.set t.seen (pl lsr 1) '\000';
    decr counter;
    if !counter = 0 then continue := false
    else begin
      c := t.reason.(pl lsr 1);
      assert (!c >= 0)
    end
  done;
  for i = 0 to !cleared - 1 do
    Bytes.set t.seen t.to_clear.(i) '\000'
  done;
  let n = !learnt_n in
  t.buf.(0) <- !p lxor 1;
  for i = 1 to (n - 1) / 2 do
    let a = t.buf.(i) in
    t.buf.(i) <- t.buf.(n - i);
    t.buf.(n - i) <- a
  done;
  t.learnt_n <- n;
  !btlevel

(* Learn [t.buf.(0 .. t.learnt_n - 1)] (asserting literal first) after
   backtracking. *)
let record t =
  let a = t.buf and n = t.learnt_n in
  if n = 1 then enqueue t a.(0) (-1)
  else begin
    (* watch the asserting literal and a highest-level other literal,
       so the watch invariant holds after backtracking *)
    let mi = ref 1 in
    for i = 2 to n - 1 do
      if t.level.(a.(i) lsr 1) > t.level.(a.(!mi) lsr 1) then mi := i
    done;
    let tmp = a.(1) in
    a.(1) <- a.(!mi);
    a.(!mi) <- tmp;
    let reason =
      if n = 2 then begin
        attach_binary t a.(0) a.(1);
        (a.(1) lsl 1) lor 1
      end
      else attach_long t a 0 n
    in
    t.stats.learned <- t.stats.learned + 1;
    enqueue t a.(0) reason
  end

(* Ascending int sort of [a.(0 .. n - 1)]: insertion sort for the short
   clauses encoders emit, [Array.sort] on a copy past that. *)
let sort_prefix a n =
  if n <= 32 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let b = Array.sub a 0 n in
    Array.sort Int.compare b;
    Array.blit b 0 a 0 n
  end

(* Copy a clause into [t.buf] from index [n] on; its length. *)
let rec load t n = function
  | [] -> n
  | l :: rest ->
    if l < 0 || l lsr 1 >= t.nvars then
      invalid_arg "Solver.add_clause: literal out of range";
    if n = Array.length t.buf then t.buf <- grow t.buf (2 * n) 0;
    t.buf.(n) <- l;
    load t (n + 1) rest

let add_clause t lits =
  if not t.unsat then begin
    cancel_until t 0;
    if propagate t >= 0 then t.unsat <- true;
    if not t.unsat then begin
      let n = load t 0 lits in
      let a = t.buf in
      sort_prefix a n;
      (* dedup; a complementary pair is adjacent once sorted *)
      let m = ref 0 and tautology = ref false and satisfied = ref false in
      for i = 0 to n - 1 do
        let l = a.(i) in
        if !m = 0 || a.(!m - 1) <> l then begin
          if !m > 0 && a.(!m - 1) = l lxor 1 then tautology := true;
          if lit_value t l = 1 then satisfied := true;
          a.(!m) <- l;
          incr m
        end
      done;
      if not (!tautology || !satisfied) then begin
        (* drop false literals *)
        let r = ref 0 in
        for i = 0 to !m - 1 do
          if lit_value t a.(i) <> 0 then begin
            a.(!r) <- a.(i);
            incr r
          end
        done;
        match !r with
        | 0 -> t.unsat <- true
        | 1 ->
          enqueue t a.(0) (-1);
          if propagate t >= 0 then t.unsat <- true
        | 2 ->
          attach_binary t a.(0) a.(1);
          t.nclauses <- t.nclauses + 1
        | r ->
          ignore (attach_long t a 0 r);
          t.nclauses <- t.nclauses + 1
      end
    end
  end

(* Luby sequence, 1-indexed: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

let restart_base = 64

(* splitmix64 of (seed, v): deterministic initial phase *)
let seeded_phase seed v =
  let z =
    ref
      (Int64.add (Int64.of_int seed)
         (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (v + 1))))
  in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94D049BB133111EBL;
  let h = Int64.logxor !z (Int64.shift_right_logical !z 31) in
  Int64.logand h 1L = 0L

(* The unassigned variable of highest activity, or -1. *)
let pick_branch t =
  let v = ref (-1) in
  while !v < 0 && t.heap_n > 0 do
    let cand = heap_pop t in
    if t.assign.(cand) < 0 then v := cand
  done;
  !v

let solve ?(budget = max_int) ?(seed = 0) t =
  if t.unsat then Unsat
  else begin
    for v = t.phase_inited to t.nvars - 1 do
      t.phase.(v) <- seeded_phase seed v
    done;
    t.phase_inited <- t.nvars;
    for v = 0 to t.nvars - 1 do
      if t.assign.(v) < 0 then heap_insert t v
    done;
    let conflicts0 = t.stats.conflicts in
    let restart_count = ref 1 in
    let next_restart = ref (luby 1 * restart_base) in
    let since_restart = ref 0 in
    let result = ref None in
    while !result = None do
      let confl = propagate t in
      if confl >= 0 then begin
        t.stats.conflicts <- t.stats.conflicts + 1;
        incr since_restart;
        if t.trail_lim_n = 0 then begin
          t.unsat <- true;
          result := Some Unsat
        end
        else if t.stats.conflicts - conflicts0 >= budget then begin
          cancel_until t 0;
          result := Some Unknown
        end
        else begin
          let bt = analyze t confl in
          cancel_until t bt;
          record t;
          var_decay t
        end
      end
      else if !since_restart >= !next_restart && t.trail_lim_n > 0 then begin
        t.stats.restarts <- t.stats.restarts + 1;
        incr restart_count;
        since_restart := 0;
        next_restart := luby !restart_count * restart_base;
        cancel_until t 0
      end
      else begin
        let v = pick_branch t in
        if v < 0 then result := Some Sat
        else begin
          t.stats.decisions <- t.stats.decisions + 1;
          t.trail_lim.(t.trail_lim_n) <- t.trail_n;
          t.trail_lim_n <- t.trail_lim_n + 1;
          enqueue t (if t.phase.(v) then pos v else neg v) (-1)
        end
      end
    done;
    match !result with Some r -> r | None -> assert false
  end

let value t v =
  if v < 0 || v >= t.nvars then invalid_arg "Solver.value";
  t.assign.(v) = 1
