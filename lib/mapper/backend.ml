type sa_params = {
  seed : int;
  moves : int;
  batch : int;
  t_init : float;
  t_min : float;
  warm_target : float;
  warm_mult : float;
  cool : float;
}

type pf_params = {
  max_rounds : int;
  present_base : int;
  present_growth : int;
  history_weight : int;
}

type placer = Greedy | Annealing of sa_params

type router = Incremental | Negotiated of pf_params

type t = { placer : placer; router : router }

let default_sa_params =
  {
    seed = 0x51ced;
    moves = 20_000;
    batch = 64;
    t_init = 64.0;
    t_min = 0.05;
    warm_target = 0.9;
    warm_mult = 1.5;
    cool = 0.92;
  }

let default_pf_params =
  { max_rounds = 24; present_base = 60; present_growth = 2; history_weight = 40 }

let default = { placer = Greedy; router = Incremental }
let sa = { placer = Annealing default_sa_params; router = Negotiated default_pf_params }
let pathfinder = { placer = Greedy; router = Negotiated default_pf_params }

let is_default t = t = default

let to_string t =
  match (t.placer, t.router) with
  | Greedy, Incremental -> "default"
  | Greedy, Negotiated _ -> "pathfinder"
  | Annealing p, Negotiated _ ->
    if p.seed = default_sa_params.seed then "sa" else Printf.sprintf "sa:%d" p.seed
  | Annealing p, Incremental -> Printf.sprintf "sa+dijkstra:%d" p.seed

let of_string s =
  match s with
  | "default" -> Ok default
  | "pathfinder" -> Ok pathfinder
  | "sa" -> Ok sa
  | _ -> (
    (* a canonical seed, so to_string stays the exact inverse (no
       "-1", "0x2a", "007" or "1_000" aliases) *)
    let seeded prefix =
      let n = String.length prefix in
      if String.length s > n && String.sub s 0 n = prefix then
        Iced_util.Nat.of_string (String.sub s n (String.length s - n))
      else None
    in
    match seeded "sa:" with
    | Some seed ->
      Ok { sa with placer = Annealing { default_sa_params with seed } }
    | None -> (
      match seeded "sa+dijkstra:" with
      | Some seed ->
        Ok { placer = Annealing { default_sa_params with seed }; router = Incremental }
      | None ->
        Error
          (Printf.sprintf
             "unknown mapper backend %S (expected default, sa, sa:<seed>, or pathfinder)"
             s)))

let names = [ "default"; "sa"; "pathfinder" ]
