open Iced_dfg

type domain = Embedded | Machine_learning | Hpc | Gcn | Lu

type table_stats = {
  nodes1 : int;
  edges1 : int;
  rec_mii1 : int;
  nodes2 : int;
  edges2 : int;
  rec_mii2 : int;
}

type t = {
  name : string;
  domain : domain;
  data : string;
  dfg : Graph.t;
  unroll_shared : int list;
  serial_phis : int list;
  table : table_stats option;
  binding : Iced_sim.Sim.binding;
  iterations : int;
  unrolled : Graph.t option Atomic.t;
}

let domain_to_string = function
  | Embedded -> "embedded"
  | Machine_learning -> "ml"
  | Hpc -> "hpc"
  | Gcn -> "gcn"
  | Lu -> "lu"

let dfg_at k ~factor =
  match factor with
  | 1 -> k.dfg
  | 2 -> (
    match Atomic.get k.unrolled with
    | Some g -> g
    | None ->
      let g =
        Transform.unroll k.dfg
          ~spec:{ Transform.factor = 2; shared = k.unroll_shared; serial_phis = k.serial_phis }
      in
      (* a domain that loses the race returns the winner's graph *)
      if Atomic.compare_and_set k.unrolled None (Some g) then g
      else Option.get (Atomic.get k.unrolled))
  | _ -> invalid_arg "Kernel.dfg_at: only unroll factors 1 and 2 are modeled"

let stats g = (Graph.node_count g, Graph.edge_count g, Analysis.rec_mii g)

let make ~name ~domain ~data ~dfg ?(unroll_shared = []) ?(serial_phis = []) ?table
    ?(binding = Iced_sim.Sim.zero_binding) ~iterations () =
  (match Graph.validate dfg with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Kernel.make %s: %s" name msg));
  { name; domain; data; dfg; unroll_shared; serial_phis; table; binding; iterations;
    unrolled = Atomic.make None }
