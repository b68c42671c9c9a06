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
   priorities pop in the same order.  They are loops rather than
   recursions so that the hole's index and the entry stay in
   registers. *)
let sift_up h i p v =
  let prio = h.prio and payload = h.payload in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let parent = (!i - 1) / 2 in
    if !i > 0 && p < prio.(parent) then begin
      prio.(!i) <- prio.(parent);
      payload.(!i) <- payload.(parent);
      i := parent
    end
    else moving := false
  done;
  prio.(!i) <- p;
  payload.(!i) <- v

let sift_down h i p v =
  let prio = h.prio and payload = h.payload and size = h.size in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
    let smallest = if left < size && prio.(left) < p then left else !i in
    let least = if smallest = !i then p else prio.(left) in
    let smallest = if right < size && prio.(right) < least then right else smallest in
    if smallest <> !i then begin
      prio.(!i) <- prio.(smallest);
      payload.(!i) <- payload.(smallest);
      i := smallest
    end
    else moving := false
  done;
  prio.(!i) <- p;
  payload.(!i) <- v

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
