(* Entry [i] is (prio.(i), payload.(i)); the two arrays always have the
   same length, and cells at [size] and beyond are garbage. *)
type t = { mutable prio : int array; mutable payload : int array; mutable size : int }

let create () = { prio = [||]; payload = [||]; size = 0 }

let clear h = h.size <- 0

let is_empty h = h.size = 0

let size h = h.size

(* The sifts move a hole instead of swapping: the moving entry
   (priority [p], payload [v]) is written once, where the hole stops.
   They make the comparisons the swapping sifts made (strict [<], left
   child probed first), so every entry ends where it did and equal
   priorities pop in the same order. *)
let rec sift_up h i p v =
  let parent = (i - 1) / 2 in
  if i > 0 && p < h.prio.(parent) then begin
    h.prio.(i) <- h.prio.(parent);
    h.payload.(i) <- h.payload.(parent);
    sift_up h parent p v
  end
  else begin
    h.prio.(i) <- p;
    h.payload.(i) <- v
  end

let rec sift_down h i p v =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < h.size && h.prio.(left) < p then left else i in
  let least = if smallest = i then p else h.prio.(left) in
  let smallest = if right < h.size && h.prio.(right) < least then right else smallest in
  if smallest <> i then begin
    h.prio.(i) <- h.prio.(smallest);
    h.payload.(i) <- h.payload.(smallest);
    sift_down h smallest p v
  end
  else begin
    h.prio.(i) <- p;
    h.payload.(i) <- v
  end

let grow h =
  let capacity = max 16 (2 * h.size) in
  let bigger a =
    let b = Array.make capacity 0 in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.prio <- bigger h.prio;
  h.payload <- bigger h.payload

let push h priority payload =
  if h.size = Array.length h.prio then grow h;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) priority payload

let min_priority h =
  if h.size = 0 then invalid_arg "Heap.min_priority";
  h.prio.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop";
  let top = h.payload.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then sift_down h 0 h.prio.(h.size) h.payload.(h.size);
  top
