(* Entry [i] is (prio.(i), payload.(i)); the two arrays always have the
   same length, and cells at [size] and beyond are garbage. *)
type t = { mutable prio : int array; mutable payload : int array; mutable size : int }

let create () = { prio = [||]; payload = [||]; size = 0 }

let clear h = h.size <- 0

let is_empty h = h.size = 0

let size h = h.size

let swap h i j =
  let p = h.prio.(i) and v = h.payload.(i) in
  h.prio.(i) <- h.prio.(j);
  h.payload.(i) <- h.payload.(j);
  h.prio.(j) <- p;
  h.payload.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prio.(i) < h.prio.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && h.prio.(left) < h.prio.(!smallest) then smallest := left;
  if right < h.size && h.prio.(right) < h.prio.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
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
  h.prio.(h.size) <- priority;
  h.payload.(h.size) <- payload;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let min_priority h =
  if h.size = 0 then invalid_arg "Heap.min_priority";
  h.prio.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop";
  let top = h.payload.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.prio.(0) <- h.prio.(h.size);
    h.payload.(0) <- h.payload.(h.size);
    sift_down h 0
  end;
  top
