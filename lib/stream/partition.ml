open Iced_arch
open Iced_mapper

type candidate = {
  islands : int;
  mapping : Mapping.t;
  tile_activity : float list;
  sram_activity : float;
}

let candidate ~islands (mapping : Mapping.t) =
  let ii = float_of_int mapping.Mapping.ii in
  {
    islands;
    mapping;
    tile_activity =
      List.map
        (fun (tm : Iced_sim.Metrics.tile_metrics) -> float_of_int tm.busy_slots /. ii)
        (Iced_sim.Metrics.per_tile mapping);
    sram_activity = Iced_sim.Metrics.sram_activity mapping;
  }

type prepared_instance = {
  instance : Pipeline.instance;
  candidates : candidate list;
}

type t = {
  cgra : Cgra.t;
  pipeline : Pipeline.t;
  prepared : prepared_instance list;
  allocation : (string * int) list;
  island_ids : (string * int list) list;
  level_floors : (string * Dvfs.level) list;
}

let candidate_for prepared count =
  List.find_opt (fun c -> c.islands = count) prepared.candidates

let ii_for t label count =
  let prepared = List.find (fun p -> p.instance.Pipeline.label = label) t.prepared in
  match candidate_for prepared count with
  | Some c -> c.mapping.Mapping.ii
  | None -> max_int

let allocated t label =
  let prepared = List.find (fun p -> p.instance.Pipeline.label = label) t.prepared in
  let count = List.assoc label t.allocation in
  match candidate_for prepared count with
  | Some c -> c
  | None -> invalid_arg ("Partition.allocated: no candidate for " ^ label)

(* Map a kernel confined to the first [count] islands (representative
   geometry: islands are homogeneous up to the SPM column, and the
   mapper treats the partition's westmost column as its SPM access
   point), then assign its island levels. *)
let map_on_islands cgra kernel ~count =
  let tiles =
    List.concat_map (fun island -> Cgra.island_tiles cgra island)
      (List.init count (fun i -> i))
  in
  let req =
    Mapper.request ~strategy:Mapper.Dvfs_aware ~tiles ~label_floor:Dvfs.Relax cgra
  in
  Mapper.map req (kernel : Iced_kernels.Kernel.t).dfg
  |> Result.map (Levels.assign ~floor:Dvfs.Relax ~allow_gating:false)

(* All compositions of [total] into [parts] positive summands. *)
let rec compositions total parts =
  if parts <= 0 then if total = 0 then [ [] ] else []
  else if parts = 1 then if total >= 1 then [ [ total ] ] else []
  else
    List.concat_map
      (fun first ->
        List.map (fun rest -> first :: rest) (compositions (total - first) (parts - 1)))
      (List.init total (fun i -> i + 1))

let prepare ?(max_islands_per_kernel = 6) cgra pipeline ~profile =
  let instances = Pipeline.instances pipeline in
  let island_count = Cgra.island_count cgra in
  if List.length instances > island_count then
    Error
      (Printf.sprintf "pipeline has %d kernels but the fabric only %d islands"
         (List.length instances) island_count)
  else begin
    (* Share mappings across instances of the same kernel. *)
    let cache : (string * int, candidate option) Hashtbl.t = Hashtbl.create 32 in
    let compiled kernel count =
      let key = ((kernel : Iced_kernels.Kernel.t).name, count) in
      match Hashtbl.find_opt cache key with
      | Some c -> c
      | None ->
        let c =
          match map_on_islands cgra kernel ~count with
          | Ok mapping -> Some (candidate ~islands:count mapping)
          | Error _ -> None
        in
        Hashtbl.replace cache key c;
        c
    in
    let prepared =
      List.map
        (fun (instance : Pipeline.instance) ->
          let candidates =
            List.filter_map
              (fun i -> compiled instance.kernel (i + 1))
              (List.init (min max_islands_per_kernel island_count) (fun i -> i))
          in
          { instance; candidates })
        instances
    in
    match List.find_opt (fun p -> p.candidates = []) prepared with
    | Some p ->
      Error
        (Printf.sprintf "kernel %s cannot map at any island count"
           p.instance.Pipeline.label)
    | None ->
      (* Mean profiled bottleneck time (cycles) of an allocation. *)
      let ii_of p count =
        match candidate_for p count with
        | Some c -> c.mapping.Mapping.ii
        | None -> max_int
      in
      let score counts =
        let by_instance = List.combine prepared counts in
        let total input =
          List.fold_left
            (fun acc (p, count) ->
              let ii = ii_of p count in
              if ii = max_int then infinity
              else acc +. float_of_int (ii * p.instance.Pipeline.iterations input))
            0.0 by_instance
        in
        let bottleneck input =
          List.fold_left
            (fun worst stage ->
              let stage_time =
                List.fold_left
                  (fun acc (instance : Pipeline.instance) ->
                    let p, count =
                      List.find
                        (fun (p, _) -> p.instance.Pipeline.label = instance.Pipeline.label)
                        by_instance
                    in
                    let ii = ii_of p count in
                    if ii = max_int then infinity
                    else
                      max acc (float_of_int (ii * instance.Pipeline.iterations input)))
                  0.0 stage
              in
              Float.max worst stage_time)
            0.0 pipeline.Pipeline.stages
        in
        (* bottleneck first; total time as a tiebreak so surplus
           islands go where they help rather than to whoever is last *)
        ( Iced_util.Stats.mean (List.map bottleneck profile),
          Iced_util.Stats.mean (List.map total profile) )
      in
      let all = compositions island_count (List.length instances) in
      let best =
        List.fold_left
          (fun best counts ->
            let s = score counts in
            match best with
            | Some (_, best_score) when best_score <= s -> best
            | _ -> Some (counts, s))
          None all
      in
      (match best with
      | None -> Error "no feasible allocation"
      | Some (_, (bottleneck, _)) when bottleneck = infinity ->
        Error "every allocation leaves some kernel unmappable"
      | Some (counts, _) ->
        let labels = List.map (fun (i : Pipeline.instance) -> i.Pipeline.label) instances in
        let allocation = List.combine labels counts in
        (* concrete islands handed out contiguously in pipeline order *)
        let island_ids =
          let next = ref 0 in
          List.map
            (fun (label, count) ->
              let ids = List.init count (fun i -> !next + i) in
              next := !next + count;
              (label, ids))
            allocation
        in
        (* Compile-time DVFS eligibility (the paper's normal-or-relax
           allocation): how close does each kernel's profiled time come
           to the per-input bottleneck?  A kernel whose doubled (or
           quadrupled) worst-case ratio still fits under the bottleneck
           may be lowered to Relax (or Rest) by the runtime; the rest
           are pinned at Normal, so a phase shift can never leave a
           slowed kernel throttling the pipeline. *)
        let level_floors =
          let time label input =
            let instance = Pipeline.find pipeline label in
            let count = List.assoc label allocation in
            let p =
              List.find (fun p -> p.instance.Pipeline.label = label) prepared
            in
            let ii = ii_of p count in
            float_of_int (ii * instance.Pipeline.iterations input)
          in
          let bottleneck input =
            List.fold_left
              (fun worst stage ->
                Float.max worst
                  (List.fold_left
                     (fun acc (i : Pipeline.instance) ->
                       Float.max acc (time i.Pipeline.label input))
                     0.0 stage))
              1e-9 pipeline.Pipeline.stages
          in
          List.map
            (fun (label, _) ->
              (* The median of the kernel's share of the bottleneck:
                 the runtime window guard (with its cross-window decay
                 memory) protects against transient phases, so the
                 compile-time bound only rules out kernels that are the
                 bottleneck most of the time — attempting to lower
                 those would always be reverted. *)
              let typical_ratio =
                profile
                |> List.map (fun input -> time label input /. bottleneck input)
                |> Iced_util.Stats.percentile 50.0
              in
              let floor =
                if typical_ratio >= 0.95 then Dvfs.Normal
                else if typical_ratio >= 0.55 then Dvfs.Relax
                else Dvfs.Rest
              in
              (label, floor))
            allocation
        in
        Ok { cgra; pipeline; prepared; allocation; island_ids; level_floors })
  end
