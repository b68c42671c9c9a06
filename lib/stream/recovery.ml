type 'a holder = {
  item : 'a;
  floor : int;
  mutable count : int;
  mutable owned : int list;
}

let owner holders island = List.find_opt (fun h -> List.mem island h.owned) holders

(* Drop [h] one island; a refused fit restores the count. *)
let shrink ~resize h =
  h.count <- h.count - 1;
  match resize h with
  | Ok () -> Ok ()
  | Error e ->
    h.count <- h.count + 1;
    Error e

let gate ~resize holders victim ~island =
  victim.owned <- List.filter (fun i -> i <> island) victim.owned;
  let rec borrow = function
    | [] -> Error "no holder can spare an island"
    | donor :: rest -> (
      match shrink ~resize donor with
      | Error _ -> borrow rest
      | Ok () ->
        (* the donor hands its last island to the victim *)
        let given = List.nth donor.owned donor.count in
        donor.owned <- List.filteri (fun i _ -> i < donor.count) donor.owned;
        victim.owned <- victim.owned @ [ given ];
        resize victim)
  in
  if victim.count > victim.floor && shrink ~resize victim = Ok () then Ok ()
  else
    List.filter (fun d -> d != victim && d.count > d.floor) holders
    |> List.stable_sort (fun a b -> compare b.count a.count)
    |> borrow

let reconfig_us (candidate : Partition.candidate) =
  let bits = Iced_mapper.Bitstream.total_bits candidate.Partition.mapping in
  float_of_int ((bits + 63) / 64) /. Iced_power.Params.default.f_normal_mhz

let tiles (p : Partition.t) =
  let cgra = p.Partition.cgra in
  List.map
    (fun (label, count) ->
      ( label,
        List.fold_left
          (fun acc k -> acc + List.length (Iced_arch.Cgra.island_tiles cgra k))
          0 (List.init count Fun.id) ))
    p.Partition.allocation
