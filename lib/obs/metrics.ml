module Json = Iced_util.Json

(* Log2 bucket exponents: 2^-16 (~15 us if samples are seconds) up to
   2^47.  64 buckets total; out-of-range samples clamp to the ends. *)
let min_exp = -16
let max_exp = 47
let n_buckets = max_exp - min_exp + 1

type histogram = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let mu = Mutex.create ()
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 32
let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let reset () =
  Mutex.protect mu (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset gauges;
      Hashtbl.reset histograms)

let incr ?(by = 1) name =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c := !c + by
      | None -> Hashtbl.replace counters name (ref by))

let gauge name v =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g := v
      | None -> Hashtbl.replace gauges name (ref v))

let bucket_of v =
  if v <= 0.0 || Float.is_nan v then 0
  else
    let e = int_of_float (Float.ceil (Float.log2 v)) in
    let e = if e < min_exp then min_exp else if e > max_exp then max_exp else e in
    e - min_exp

let observe name v =
  Mutex.protect mu (fun () ->
      let h =
        match Hashtbl.find_opt histograms name with
        | Some h -> h
        | None ->
          let h =
            {
              buckets = Array.make n_buckets 0;
              count = 0;
              sum = 0.0;
              min_v = Float.infinity;
              max_v = Float.neg_infinity;
            }
          in
          Hashtbl.replace histograms name h;
          h
      in
      let b = bucket_of v in
      h.buckets.(b) <- h.buckets.(b) + 1;
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v)

let histogram_names ?(prefix = "") () =
  Mutex.protect mu (fun () ->
      Hashtbl.fold
        (fun k _ acc ->
          if String.starts_with ~prefix k then k :: acc else acc)
        histograms []
      |> List.sort compare)

let counter_value name =
  Mutex.protect mu (fun () -> Option.map (fun c -> !c) (Hashtbl.find_opt counters name))

let gauge_value name =
  Mutex.protect mu (fun () -> Option.map (fun g -> !g) (Hashtbl.find_opt gauges name))

let histogram_stats name =
  Mutex.protect mu (fun () ->
      Option.map
        (fun h -> (h.count, h.sum, h.min_v, h.max_v))
        (Hashtbl.find_opt histograms name))

let quantile name q =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt histograms name with
      | None -> None
      | Some h when h.count = 0 -> None
      | Some h ->
        let q = Float.min 1.0 (Float.max 0.0 q) in
        (* rank of the q-quantile sample, 1-based *)
        let rank =
          max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
        in
        let rec walk i seen =
          if i >= n_buckets then h.max_v
          else
            let seen = seen + h.buckets.(i) in
            if seen >= rank then
              (* the bucket's upper edge, clamped to the observed range *)
              Float.min h.max_v (Float.max h.min_v (Float.pow 2.0 (float_of_int (i + min_exp))))
            else walk (i + 1) seen
        in
        Some (walk 0 0))

(* ------------------------------------------------------------------ *)
(* export                                                              *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let bucket_label i = Printf.sprintf "<=2^%d" (i + min_exp)

let histogram_json h =
  let buckets =
    Array.to_list
      (Array.mapi (fun i n -> if n = 0 then None else Some (bucket_label i, Json.int n)) h.buckets)
    |> List.filter_map Fun.id
  in
  Json.Obj
    [ ("count", Json.int h.count); ("sum", Json.Num h.sum); ("min", Json.Num h.min_v);
      ("max", Json.Num h.max_v); ("buckets", Json.Obj buckets) ]

let to_json () =
  Mutex.protect mu (fun () ->
      let members render tbl =
        Json.Obj (List.map (fun (k, v) -> (k, render v)) (sorted_bindings tbl))
      in
      Json.to_string
        (Json.Obj
           [ ("counters", members (fun c -> Json.int !c) counters);
             ("gauges", members (fun g -> Json.Num !g) gauges);
             ("histograms", members histogram_json histograms) ]))

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv () =
  Mutex.protect mu (fun () ->
      let b = Buffer.create 256 in
      Buffer.add_string b "kind,name,field,value\n";
      List.iter
        (fun (k, c) -> Buffer.add_string b (Printf.sprintf "counter,%s,value,%d\n" (csv_escape k) !c))
        (sorted_bindings counters);
      List.iter
        (fun (k, g) ->
          Buffer.add_string b (Printf.sprintf "gauge,%s,value,%s\n" (csv_escape k) (Json.number !g)))
        (sorted_bindings gauges);
      List.iter
        (fun (k, h) ->
          let row field v =
            Buffer.add_string b (Printf.sprintf "histogram,%s,%s,%s\n" (csv_escape k) field v)
          in
          row "count" (string_of_int h.count);
          row "sum" (Json.number h.sum);
          row "min" (Json.number h.min_v);
          row "max" (Json.number h.max_v))
        (sorted_bindings histograms);
      Buffer.contents b)
