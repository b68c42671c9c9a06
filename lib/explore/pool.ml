let map ~workers ?on_item f items =
  let n = Array.length items in
  let notify =
    match on_item with
    | None -> fun _ -> ()
    | Some g ->
      let mutex = Mutex.create () in
      fun i -> Mutex.protect mutex (fun () -> g i)
  in
  if workers <= 1 || n <= 1 then
    Array.mapi
      (fun i x ->
        let y = f x in
        notify i;
        y)
      items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (f items.(i));
          notify i;
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min workers n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    Array.map
      (function Some r -> r | None -> assert false (* every index was drained *))
      results
  end
