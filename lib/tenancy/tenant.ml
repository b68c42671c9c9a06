module Pipeline = Iced_stream.Pipeline
module Registry = Iced_kernels.Registry
module Rng = Iced_util.Rng

type t = {
  id : string;
  qos : Qos.class_;
  pipeline : Pipeline.t;
  inputs : Pipeline.input list;
}

let make ~id ~qos pipeline inputs =
  if id = "" then invalid_arg "Tenant.make: empty id";
  if inputs = [] then invalid_arg "Tenant.make: empty input stream";
  { id; qos; pipeline; inputs }

(* Kernels small enough to map on a one-island (2x2) strip, so a
   synthetic mix stays feasible even when eight tenants share twelve
   islands. *)
let kernels =
  [ "fir"; "mvt"; "relu"; "spmv"; "dtw"; "latnrm"; "histogram"; "fft" ]

let kernel_pipeline ~id name =
  match Registry.by_name name with
  | None -> invalid_arg ("Tenant: unknown kernel " ^ name)
  | Some kernel ->
    {
      Pipeline.name = id;
      stages =
        [
          [
            {
              Pipeline.label = name;
              kernel;
              iterations = (fun input -> Pipeline.feature input "work");
            };
          ];
        ];
    }

let synthetic_inputs rng ~count ~lo ~hi =
  List.init count (fun id ->
      { Pipeline.id; features = [ ("work", Rng.int_in rng lo hi) ] })

let qos_cycle = [ Qos.Premium; Qos.Standard; Qos.Batch ]

let synthetic_mix ?(inputs = 60) ~seed ~count () =
  if count <= 0 then invalid_arg "Tenant.synthetic_mix: non-positive count";
  if inputs <= 0 then invalid_arg "Tenant.synthetic_mix: non-positive inputs";
  let rng = Rng.create seed in
  List.init count (fun i ->
      (* one split per tenant: a tenant's stream is independent of how
         many tenants follow it *)
      let sub = Rng.split rng in
      let name = List.nth kernels (i mod List.length kernels) in
      let qos = List.nth qos_cycle (i mod List.length qos_cycle) in
      let id = Printf.sprintf "t%d-%s" i name in
      (* phase-shifted work ranges make the bottleneck — and with it
         each controller's desired levels — drift differently per
         tenant, which is what gives the allocator real contention *)
      let lo = 8 + (8 * (i mod 4)) in
      let hi = lo + 24 + Rng.int sub 16 in
      {
        id;
        qos;
        pipeline = kernel_pipeline ~id name;
        inputs = synthetic_inputs sub ~count:inputs ~lo ~hi;
      })
