type t = {
  window_size : int;
  partition : Partition.t;
  mutable allocation : (string * int) list;
  exe_table : (string, float list) Hashtbl.t;
  mutable inputs_seen : int;
}

let create ?(window = 10) partition =
  if window <= 0 then invalid_arg "Drips.create: non-positive window";
  {
    window_size = window;
    partition;
    allocation = partition.Partition.allocation;
    exe_table = Hashtbl.create 16;
    inputs_seen = 0;
  }

let allocation t = t.allocation

let observe t ~label ~busy_time =
  let existing =
    match Hashtbl.find_opt t.exe_table label with Some l -> l | None -> []
  in
  Hashtbl.replace t.exe_table label (busy_time :: existing)

let reshape t =
  let averages =
    List.filter_map
      (fun (label, count) ->
        match Hashtbl.find_opt t.exe_table label with
        | Some (_ :: _ as samples) -> Some (label, count, Iced_util.Stats.mean samples)
        | Some [] | None -> None)
      t.allocation
  in
  match averages with
  | [] | [ _ ] -> ()
  | (l0, c0, t0) :: rest ->
    let bottleneck =
      List.fold_left
        (fun ((_, _, bt) as b) ((_, _, time) as cand) -> if time > bt then cand else b)
        (l0, c0, t0) rest
    in
    let donors =
      List.filter
        (fun (label, count, _) ->
          count > 1 && label <> (let l, _, _ = bottleneck in l))
        averages
    in
    (match donors with
    | [] -> ()
    | d0 :: ds ->
      let donor =
        List.fold_left
          (fun ((_, _, dt) as d) ((_, _, time) as cand) -> if time < dt then cand else d)
          d0 ds
      in
      let b_label, b_count, b_time = bottleneck in
      let d_label, d_count, d_time = donor in
      (* Predict both sides with the precomputed II tables; migrate only
         if the new bottleneck of the pair improves. *)
      let ii label count = Partition.ii_for t.partition label count in
      let scale label old_count new_count time =
        let old_ii = ii label old_count and new_ii = ii label new_count in
        if old_ii = max_int || new_ii = max_int || old_ii = 0 then infinity
        else time *. float_of_int new_ii /. float_of_int old_ii
      in
      let b_after = scale b_label b_count (b_count + 1) b_time in
      let d_after = scale d_label d_count (d_count - 1) d_time in
      if Float.max b_after d_after < b_time then
        t.allocation <-
          List.map
            (fun (label, count) ->
              if label = b_label then (label, count + 1)
              else if label = d_label then (label, count - 1)
              else (label, count))
            t.allocation)

let input_done t =
  t.inputs_seen <- t.inputs_seen + 1;
  if t.inputs_seen mod t.window_size = 0 then begin
    reshape t;
    Hashtbl.reset t.exe_table
  end

