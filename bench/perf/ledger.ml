(* The perf ledger: result files, the regression compare, and the
   stability summary over repeated runs.

   One file shape serves a single run and a set of runs: every metric
   and counter keeps all its values, and medians and quartiles are
   computed from them when read. *)

module Json = Iced_util.Json

type t = {
  workload : string;
  env : (string * Json.value) list;  (* nproc, OCaml version, git rev, seeds, ... *)
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (string * float list)) list;  (* name -> unit, values *)
  counters : (string * float list) list;
}

let schema = "iced-perf-v1"

(* ------------------------------------------------------------------ *)
(* Writing *)

let rec render = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Num f -> Runner.number f
  | Json.Str s -> Json.quote s
  | Json.Arr vs -> "[" ^ String.concat "," (List.map render vs) ^ "]"
  | Json.Obj kvs ->
    "{" ^ String.concat "," (List.map (fun (k, v) -> Json.quote k ^ ":" ^ render v) kvs) ^ "}"

let nums xs = Json.Arr (List.map (fun x -> Json.Num x) xs)

let git_rev () =
  match Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let rev = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown")

let of_result (r : Runner.result) =
  {
    workload = r.workload;
    env =
      [ ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("git_rev", Json.Str (git_rev ()));
        ("seeds", nums [ float_of_int r.config.seed ]);
        ("speed_factors", nums [ r.speed ]);
        ("seconds", Json.Num r.seconds);
        ("traced", Json.Bool r.traced);
        ("tail_percentile", Json.Num r.tail_pct) ];
    correct = r.failed = 0;
    attempted = r.attempted;
    failed = r.failed;
    metrics = List.map (fun (name, v) -> (name, (Runner.unit_of name, [ v ]))) r.metrics;
    counters = List.map (fun (name, v) -> (name, [ v ])) r.counters;
  }

let to_json l =
  render
    (Json.Obj
       [ ("schema", Json.Str schema);
         ("workload", Json.Str l.workload);
         ("env", Json.Obj l.env);
         ("correct", Json.Bool l.correct);
         ("attempted", Json.Num (float_of_int l.attempted));
         ("failed", Json.Num (float_of_int l.failed));
         ("metrics",
           Json.Obj
             (List.map
                (fun (name, (unit, values)) ->
                  let q1, q2, q3 = Sample.quartiles values in
                  ( name,
                    Json.Obj
                      [ ("unit", Json.Str unit); ("median", Json.Num q2); ("q1", Json.Num q1);
                        ("q3", Json.Num q3); ("values", nums values) ] ))
                l.metrics));
         ("counters", Json.Obj (List.map (fun (name, vs) -> (name, nums vs)) l.counters)) ])

let write path l =
  let oc = open_out path in
  output_string oc (to_json l);
  output_char oc '\n';
  close_out oc

(* One ledger of several runs of one workload: every value list, and
   the seeds and speed factors, concatenated in run order. *)
let merge ls =
  let l0 = List.hd ls in
  let concat get name = List.concat_map (fun l -> List.assoc name (get l)) ls in
  let env_list l k = Option.value ~default:[] (Option.bind (List.assoc_opt k l.env) Json.get_list) in
  {
    l0 with
    env =
      List.map
        (fun (k, v) ->
          match v with Json.Arr _ -> (k, Json.Arr (List.concat_map (fun l -> env_list l k) ls)) | _ -> (k, v))
        l0.env;
    correct = List.for_all (fun l -> l.correct) ls;
    attempted = List.fold_left (fun acc l -> acc + l.attempted) 0 ls;
    failed = List.fold_left (fun acc l -> acc + l.failed) 0 ls;
    metrics =
      List.map
        (fun (name, (unit, _)) -> (name, (unit, concat (fun l -> List.map (fun (n, (_, vs)) -> (n, vs)) l.metrics) name)))
        l0.metrics;
    counters = List.map (fun (name, _) -> (name, concat (fun l -> l.counters) name)) l0.counters;
  }

(* ------------------------------------------------------------------ *)
(* Reading *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_file path =
  match Json.parse (String.trim (read_file path)) with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path (Json.error_to_string e))

let field path v name get =
  match Option.bind (Json.member name v) get with
  | Some x -> x
  | None -> failwith (Printf.sprintf "%s: missing or mistyped %S" path name)

let numbers path v =
  List.map
    (fun x ->
      match Json.get_number x with Some f -> f | None -> failwith (path ^ ": non-numeric value"))
    (Option.value ~default:[] (Json.get_list v))

let read path =
  let v = parse_file path in
  if field path v "schema" Json.get_string <> schema then
    failwith (Printf.sprintf "%s: not an %s file" path schema);
  {
    workload = field path v "workload" Json.get_string;
    env = field path v "env" Json.get_obj;
    correct = field path v "correct" Json.get_bool;
    attempted = field path v "attempted" Json.get_int;
    failed = field path v "failed" Json.get_int;
    metrics =
      List.map
        (fun (name, m) ->
          (name, (field path m "unit" Json.get_string, numbers path (field path m "values" Option.some))))
        (field path v "metrics" Json.get_obj);
    counters =
      List.map (fun (name, vs) -> (name, numbers path vs)) (field path v "counters" Json.get_obj);
  }

(* BENCHMARK.json: the end-to-end metrics with direction and bound. *)
type bound = { better : string; bound : float }

let bounds path =
  let v = parse_file path in
  List.map
    (fun m ->
      ( field path m "name" Json.get_string,
        { better = field path m "better" Json.get_string;
          bound = field path m "bound" Json.get_number } ))
    (field path v "end_to_end" Json.get_list)

(* ------------------------------------------------------------------ *)
(* Compare *)

(* Signed change of [now] against [base] as a share of [base], positive
   when worse. *)
let worsening ~better ~base now =
  let d = (now -. base) /. Float.abs base in
  if better = "higher" then -.d else d

(* Prints one row per metric and counter; returns the number of
   regressions. *)
let compare ~bounds ~baseline run =
  let regressions = ref 0 in
  let row name verdict detail =
    if verdict = "REGRESSION" then incr regressions;
    Printf.printf "%-24s %-11s %s\n" name verdict detail
  in
  Printf.printf "%s: %s against baseline (git %s)\n" run.workload
    (if run.correct then "correct" else "INCORRECT")
    (match List.assoc_opt "git_rev" baseline.env with Some (Json.Str r) -> r | _ -> "?");
  if not run.correct then incr regressions;
  List.iter
    (fun (name, (unit, values)) ->
      match (List.assoc_opt name baseline.metrics, List.assoc_opt name bounds) with
      | None, _ | _, None -> row name "new" ""
      | Some (_, base_values), Some b ->
        let base = Sample.median base_values and now = Sample.median values in
        let w = worsening ~better:b.better ~base now in
        let spread = Float.max (Sample.spread base_values) (Sample.spread values) in
        let verdict =
          if b.bound = 0.0 then if now = base then "same" else if w > 0.0 then "REGRESSION" else "improved"
          else if w > b.bound then if spread > b.bound then "unresolved" else "REGRESSION"
          else if spread > b.bound then "unresolved"
          else if w < -.b.bound then "improved"
          else "ok"
        in
        row name verdict
          (Printf.sprintf "%s -> %s %s (%+.1f%% worse, bound %.0f%%, spread %.1f%%)"
             (Runner.number base) (Runner.number now) unit (100.0 *. w) (100.0 *. b.bound)
             (100.0 *. spread)))
    run.metrics;
  (* counters count work: any increase is a regression *)
  List.iter
    (fun (name, values) ->
      match List.assoc_opt name baseline.counters with
      | None -> row name "new" ""
      | Some base_values ->
        let base = Sample.median base_values and now = Sample.median values in
        row name
          (if now = base then "same" else if now > base then "REGRESSION" else "improved")
          (Printf.sprintf "%s -> %s" (Runner.number base) (Runner.number now)))
    run.counters;
  !regressions

(* ------------------------------------------------------------------ *)
(* Stability *)

(* Prints median, quartiles and spread per metric; returns how many
   metrics have a spread wider than their bound (setup_s aside, whose
   bound is on its median only) or counters that did not repeat. *)
let stability ~bounds l =
  let problems = ref 0 in
  Printf.printf "%s: %d runs, %s\n" l.workload
    (List.length (snd (snd (List.hd l.metrics))))
    (if l.correct then "all correct" else Printf.sprintf "%d FAILED ops" l.failed);
  if not l.correct then incr problems;
  Printf.printf "%-24s %14s %14s %14s %8s %7s  %s\n" "metric" "median" "q1" "q3" "spread"
    "bound" "flags";
  List.iter
    (fun (name, (unit, values)) ->
      let q1, q2, q3 = Sample.quartiles values in
      let spread = Sample.spread values in
      let lo = List.fold_left Float.min infinity values
      and hi = List.fold_left Float.max neg_infinity values in
      let bound = Option.map (fun b -> b.bound) (List.assoc_opt name bounds) in
      let flags =
        (match bound with
        | Some b when spread > b && name <> "setup_s" ->
          incr problems;
          [ "SPREAD>BOUND" ]
        | Some b when spread > b /. 3.0 && name <> "setup_s" -> [ "spread>bound/3" ]
        | _ -> [])
        @ if (hi -. lo) /. Float.abs q2 > 0.10 then [ "range>10%" ] else []
      in
      Printf.printf "%-24s %14.6g %14.6g %14.6g %7.2f%% %6s  %s %s\n" name q2 q1 q3
        (100.0 *. spread)
        (match bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-")
        (String.concat " " flags) unit)
    l.metrics;
  (* counters must repeat exactly, but only for one seed *)
  let seeds = Option.bind (List.assoc_opt "seeds" l.env) Json.get_list in
  if Option.fold ~none:true ~some:(fun s -> List.for_all (( = ) (List.hd s)) s) seeds then
    List.iter
      (fun (name, values) ->
        if List.exists (fun v -> v <> List.hd values) values then begin
          incr problems;
          Printf.printf "%-24s counter did not repeat: %s\n" name
            (String.concat " " (List.map Runner.number values))
        end)
      l.counters;
  !problems
