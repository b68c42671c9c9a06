(* certify: the SAT-backed exact oracle (lib/sat and the CEGAR routing
   loop), the only workload that runs them.

   Exact.certify with a 100k-conflict budget on the standalone kernels
   (6x6) but conv.  Eight are decided in 0.07-1.7 s; fft is Unknown at
   once (horizon cap).  Verdicts must match
   test/golden/certified_ii.txt and witnesses must validate.  After the
   timed phase every backend maps all ten kernels at the ICED point and
   none may beat a certified optimum; those heuristic mappings are what
   ii_sum and power_mw_mean measure.  The seed orders the kernels. *)

open Iced_mapper
module Kernel = Iced_kernels.Kernel

let budget_conflicts = 100_000

type state = {
  kernels : Kernel.t list;  (* certified in the timed loop *)
  gap_kernels : Kernel.t list;  (* mapped by every backend afterwards *)
  golden : (string * int) list;  (* kernel -> certified optimal II *)
}

let read_golden path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line when String.length line = 0 || line.[0] = '#' -> loop acc
    | line -> (
      match String.split_on_char '\t' line with
      | name :: ii :: _ -> loop ((name, int_of_string ii) :: acc)
      | _ -> failwith (Printf.sprintf "%s: malformed line %S" path line))
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> loop [])

(* conv is left out of the timed loop: its 7-8 s CEGAR-bound Unknown
   would leave one pass per run, and the median of ten ops in one pass
   swings with every burst of host noise. *)
let setup (c : Workload.config) =
  let golden = read_golden c.golden in
  let kernels =
    if c.smoke then List.filter_map Iced_kernels.Registry.by_name [ "fir"; "latnrm" ]
    else List.filter (fun (k : Kernel.t) -> k.name <> "conv") Iced_kernels.Registry.standalone
  in
  { kernels = Workload.seeded_order ~seed:c.seed kernels;
    gap_kernels = (if c.smoke then kernels else Iced_kernels.Registry.standalone);
    golden }

let verdict_string = function
  | Exact.Optimal ii -> Printf.sprintf "optimal %d" ii
  | Exact.Infeasible -> "infeasible"
  | Exact.Unknown { first_undecided; _ } -> Printf.sprintf "unknown from %d" first_undecided

let check_report st (k : Kernel.t) (r : Exact.report) =
  match (r.verdict, List.assoc_opt k.name st.golden, r.witness) with
  | Exact.Optimal ii, _, Some w when w.Mapping.ii <> ii -> Error "witness II differs from verdict"
  | Exact.Optimal _, _, Some w when Validate.check w <> Ok () -> Error "witness fails Validate"
  | Exact.Optimal _, _, None -> Error "optimal verdict without a witness"
  | Exact.Optimal ii, Some g, _ when ii <> g ->
    Error (Printf.sprintf "certified II %d, golden %d" ii g)
  | Exact.Optimal _, _, _ -> Ok ()
  | v, Some g, _ -> Error (Printf.sprintf "%s, golden optimal %d" (verdict_string v) g)
  | _, None, _ -> Ok ()

(* Every backend at the ICED point must map at or above the certified
   optimum: the heuristic-vs-optimal gap is never negative. *)
let gap_check st verdicts fails =
  List.concat_map
    (fun (k : Kernel.t) ->
      List.filter_map
        (fun backend ->
          let who = k.name ^ " " ^ Backend.to_string backend in
          match Iced.Design.evaluate ~trace:false ~backend Iced.Design.Iced k with
          | Error msg ->
            Workload.fail fails (who ^ ": " ^ msg);
            None
          | Ok e ->
            (match List.assoc_opt k.name verdicts with
            | Some (Exact.Optimal opt) ->
              Workload.check fails (e.Iced.Design.ii >= opt)
                (lazy (Printf.sprintf "%s: II %d below certified optimum %d" who e.ii opt))
            | _ -> ());
            Some (e.Iced.Design.ii, e.Iced.Design.power_mw))
        [ Backend.default; Backend.sa; Backend.pathfinder ])
    st.gap_kernels

let measure st ~seconds =
  let fails = Workload.failures () in
  let stats = Mapper.create_stats () and alloc = ref 0.0 in
  let reports = ref [] and first_pass_counters = ref [] in
  let pass i op =
    List.iter
      (fun (k : Kernel.t) ->
        let r =
          op.Workload.time (fun () ->
              Tracer.span ~name:k.name "bench" (fun () ->
                  let r =
                    Workload.counting_alloc alloc (fun () ->
                        Tracer.span ~name:k.name "exact" (fun () ->
                            Exact.certify ~budget_conflicts ~stats Iced_arch.Cgra.iced_6x6 k.dfg))
                  in
                  (r, Tracer.span "validate" (fun () -> check_report st k r))))
        in
        match r with
        | _, Error msg -> Workload.fail fails (k.name ^ ": " ^ msg)
        | r, Ok () -> if i = 0 then reports := (k.name, r) :: !reports)
      st.kernels;
    if i = 0 then begin
      reports := List.rev !reports;
      first_pass_counters := Workload.counters stats ~alloc_bytes:!alloc
    end
  in
  let ops, wall_s = Workload.passes ~seconds pass in
  let reports = !reports in
  let verdicts = List.map (fun (name, (r : Exact.report)) -> (name, r.verdict)) reports in
  let quality = if Tracer.enabled () then [] else gap_check st verdicts fails in
  let sum f = float_of_int (List.fold_left (fun acc (_, r) -> acc + f r) 0 reports) in
  let decided =
    List.length
      (List.filter (fun (_, v) -> match v with Exact.Unknown _ -> false | _ -> true) verdicts)
  in
  {
    Workload.ops;
    wall_s;
    failed = fails.n;
    failures = List.rev fails.msgs;
    ii_sum = List.fold_left (fun acc (ii, _) -> acc + ii) 0 quality;
    power_mw_mean = Workload.mean (List.map snd quality);
    layer =
      [ ("exact.conflicts", sum (fun r -> r.Exact.conflicts));
        ("exact.decisions", sum (fun r -> r.Exact.decisions));
        ("exact.propagations", sum (fun r -> r.Exact.propagations));
        ("exact.route_blocks", sum (fun r -> r.Exact.route_blocks));
        ("exact.clauses", sum (fun r -> r.Exact.clauses));
        ("exact.decided_ratio",
          float_of_int decided /. float_of_int (max 1 (List.length reports))) ];
    counters = !first_pass_counters @ [ ("exact.route_blocks", sum (fun r -> r.Exact.route_blocks)) ];
  }

let workload = Workload.W { name = "certify"; tail_pct = 75.0; domains = 1; setup; measure }
