(* Byte pins for the two streaming applications at the edges that set
   them up: the daemon's [stream] and [fault] replies through
   [Server.handle], and the CSV, JSON and report of a small LU fault
   campaign.  Each stream runs at 12 inputs, at 0 (the whole dataset)
   and at 200, above LU's 150 matrices: the daemon caps a stream at its
   dataset, while a campaign generates exactly the inputs it asks for.
   The expected strings were rendered before the apps' setup moved into
   one module; regenerate them only for a deliberate change to a
   dataset, a pipeline, the profile rule or a renderer. *)

module Protocol = Iced_serve.Protocol
module Server = Iced_serve.Server
module Campaign = Iced_campaign.Campaign
module Runner = Iced_stream.Runner
module App = Iced_stream.App

let handle request =
  Server.handle ~cache:(Iced_explore.Cache.in_memory ())
    ~stats:(fun ~id -> id)
    { Protocol.id = "x"; request; deadline_ms = None; tenant = None; qos = None }

let stream app inputs () = handle (Protocol.Stream { app; policy = Runner.Iced_dvfs; inputs })

let campaign inputs =
  lazy
    (match Campaign.run { Campaign.default_spec with Campaign.seeds = [ 1; 2 ]; inputs } with
    | Ok c -> c
    | Error msg -> failwith msg)

let small = campaign 12
let large = campaign 200

let cases =
  [
    ("stream gcn 12", stream App.Gcn 12);
    ("stream gcn 0", stream App.Gcn 0);
    ("stream gcn 200", stream App.Gcn 200);
    ("stream lu 12", stream App.Lu 12);
    ("stream lu 0", stream App.Lu 0);
    ("stream lu 200", stream App.Lu 200);
    ( "fault gcn 12",
      fun () ->
        handle (Protocol.Fault { app = App.Gcn; seeds = 2; faults = 2; inputs = 12; window = 4 })
    );
    ("campaign csv 12", fun () -> Campaign.csv (Lazy.force small));
    ("campaign json 12", fun () -> Campaign.json (Lazy.force small));
    ("campaign csv 200", fun () -> Campaign.csv (Lazy.force large));
    ("campaign json 200", fun () -> Campaign.json (Lazy.force large));
    ("campaign render 200", fun () -> Campaign.render (Lazy.force large));
  ]

let expected =
  [
    ( "stream gcn 12",
      "{\"id\":\"x\",\"status\":\"ok\",\"op\":\"stream\",\"app\":\"gcn\",\"policy\":\"iced\",\"windows\":2,\"inputs\":12,\"throughput_per_s\":1228301.8867924528,\"power_mw\":167.20182530754218,\"efficiency\":7346222.9526093947}" );
    ( "stream gcn 0",
      "{\"id\":\"x\",\"status\":\"ok\",\"op\":\"stream\",\"app\":\"gcn\",\"policy\":\"iced\",\"windows\":60,\"inputs\":600,\"throughput_per_s\":81313.608225789518,\"power_mw\":123.01834573907323,\"efficiency\":660987.6578755083}" );
    ( "stream gcn 200",
      "{\"id\":\"x\",\"status\":\"ok\",\"op\":\"stream\",\"app\":\"gcn\",\"policy\":\"iced\",\"windows\":20,\"inputs\":200,\"throughput_per_s\":51064.110166699618,\"power_mw\":122.39913346673218,\"efficiency\":417193.39606745442}" );
    ( "stream lu 12",
      "{\"id\":\"x\",\"status\":\"ok\",\"op\":\"stream\",\"app\":\"lu\",\"policy\":\"iced\",\"windows\":2,\"inputs\":12,\"throughput_per_s\":223098.01233721725,\"power_mw\":127.27612880743874,\"efficiency\":1752866.1063753075}" );
    ( "stream lu 0",
      "{\"id\":\"x\",\"status\":\"ok\",\"op\":\"stream\",\"app\":\"lu\",\"policy\":\"iced\",\"windows\":15,\"inputs\":150,\"throughput_per_s\":19025.563811331871,\"power_mw\":92.477448738824222,\"efficiency\":205731.92784615053}" );
    ( "stream lu 200",
      "{\"id\":\"x\",\"status\":\"ok\",\"op\":\"stream\",\"app\":\"lu\",\"policy\":\"iced\",\"windows\":15,\"inputs\":150,\"throughput_per_s\":19025.563811331871,\"power_mw\":92.477448738824222,\"efficiency\":205731.92784615053}" );
    ( "fault gcn 12",
      "{\"id\":\"x\",\"status\":\"ok\",\"op\":\"fault\",\"app\":\"gcn\",\"cells\":8,\"policies\":[{\"recovery\":\"remap\",\"cells\":2,\"survival\":1,\"mean_retention\":0.96654929577464799,\"mean_mttr_us\":0.04377880184331797},{\"recovery\":\"gate\",\"cells\":2,\"survival\":1,\"mean_retention\":0.94388609715242877,\"mean_mttr_us\":0.062211981566820278},{\"recovery\":\"raise\",\"cells\":2,\"survival\":0.5,\"mean_retention\":0.70833333333333337,\"mean_mttr_us\":0},{\"recovery\":\"fail-stop\",\"cells\":2,\"survival\":0,\"mean_retention\":0.29166666666666669,\"mean_mttr_us\":0}]}" );
    ( "campaign csv 12",
      "app,policy,seed,recovery,injected,recoveries,remaps,islands_gated,levels_raised,dropped,replayed,recovery_us,mttr_us,offered,completed,throughput_per_s,efficiency,retention,survived,error\nlu,iced,1,remap,2,2,1,1,0,0,0,0.147465,0.0737327,12,12,206601,1.70522e+06,0.926055,true,\nlu,iced,1,gate,2,2,0,2,0,0,0,0.202765,0.101382,12,12,194415,1.67402e+06,0.871435,true,\nlu,iced,1,raise,1,0,0,0,0,7,0,0,0,12,5,218750,1.69866e+06,0.408546,false,\nlu,iced,1,fail-stop,1,0,0,0,0,7,0,0,0,12,5,218750,1.69866e+06,0.408546,false,\nlu,iced,2,remap,2,1,1,0,0,0,0,0.0552995,0.0552995,12,12,222869,1.75105e+06,0.998973,true,\nlu,iced,2,gate,2,1,0,1,0,0,0,0.0460829,0.0460829,12,12,198657,1.65537e+06,0.890449,true,\nlu,iced,2,raise,1,0,0,0,0,6,0,0,0,12,6,218164,1.69432e+06,0.488941,false,\nlu,iced,2,fail-stop,1,0,0,0,0,6,0,0,0,12,6,218164,1.69432e+06,0.488941,false,\n" );
    ( "campaign json 12",
      "{\"app\":\"lu\",\"policy\":\"iced\",\"inputs\":12,\"faults_per_run\":2,\"upset_rate\":0.001,\"baseline_throughput_per_s\":223098.01233721725,\"runs\":[{\"seed\":1,\"recovery\":\"remap\",\"plan\":\"@5 tile 7 dead; @8 island 8 regulator down\",\"injected\":2,\"recoveries\":2,\"remaps\":1,\"islands_gated\":1,\"levels_raised\":0,\"dropped\":0,\"replayed\":0,\"recovery_us\":0.14746543778801843,\"mttr_us\":0.073732718894009217,\"offered\":12,\"completed\":12,\"throughput_per_s\":206601.07902253256,\"retention\":0.92605522056490031,\"survived\":true},{\"seed\":1,\"recovery\":\"gate\",\"plan\":\"@5 tile 7 dead; @8 island 8 regulator down\",\"injected\":2,\"recoveries\":2,\"remaps\":0,\"islands_gated\":2,\"levels_raised\":0,\"dropped\":0,\"replayed\":0,\"recovery_us\":0.20276497695852536,\"mttr_us\":0.10138248847926268,\"offered\":12,\"completed\":12,\"throughput_per_s\":194415.40988502317,\"retention\":0.87143497088248489,\"survived\":true},{\"seed\":1,\"recovery\":\"raise\",\"plan\":\"@5 tile 7 dead; @8 island 8 regulator down\",\"injected\":1,\"recoveries\":0,\"remaps\":0,\"islands_gated\":0,\"levels_raised\":0,\"dropped\":7,\"replayed\":0,\"recovery_us\":0,\"mttr_us\":0,\"offered\":12,\"completed\":5,\"throughput_per_s\":218750.00000000003,\"retention\":0.40854614695340513,\"survived\":false},{\"seed\":1,\"recovery\":\"fail-stop\",\"plan\":\"@5 tile 7 dead; @8 island 8 regulator down\",\"injected\":1,\"recoveries\":0,\"remaps\":0,\"islands_gated\":0,\"levels_raised\":0,\"dropped\":7,\"replayed\":0,\"recovery_us\":0,\"mttr_us\":0,\"offered\":12,\"completed\":5,\"throughput_per_s\":218750.00000000003,\"retention\":0.40854614695340513,\"survived\":false},{\"seed\":2,\"recovery\":\"remap\",\"plan\":\"@6 link t12.N broken; @7 island 6 upsets (rate 0.001)\",\"injected\":2,\"recoveries\":1,\"remaps\":1,\"islands_gated\":0,\"levels_raised\":0,\"dropped\":0,\"replayed\":0,\"recovery_us\":0.055299539170506916,\"mttr_us\":0.055299539170506916,\"offered\":12,\"completed\":12,\"throughput_per_s\":222868.88052036977,\"retention\":0.99897295446764833,\"survived\":true},{\"seed\":2,\"recovery\":\"gate\",\"plan\":\"@6 link t12.N broken; @7 island 6 upsets (rate 0.001)\",\"injected\":2,\"recoveries\":1,\"remaps\":0,\"islands_gated\":1,\"levels_raised\":0,\"dropped\":0,\"replayed\":0,\"recovery_us\":0.046082949308755762,\"mttr_us\":0.046082949308755762,\"offered\":12,\"completed\":12,\"throughput_per_s\":198657.30851388467,\"retention\":0.89044858101922508,\"survived\":true},{\"seed\":2,\"recovery\":\"raise\",\"plan\":\"@6 link t12.N broken; @7 island 6 upsets (rate 0.001)\",\"injected\":1,\"recoveries\":0,\"remaps\":0,\"islands_gated\":0,\"levels_raised\":0,\"dropped\":6,\"replayed\":0,\"recovery_us\":0,\"mttr_us\":0,\"offered\":12,\"completed\":6,\"throughput_per_s\":218163.53887399464,\"retention\":0.48894101876675605,\"survived\":false},{\"seed\":2,\"recovery\":\"fail-stop\",\"plan\":\"@6 link t12.N broken; @7 island 6 upsets (rate 0.001)\",\"injected\":1,\"recoveries\":0,\"remaps\":0,\"islands_gated\":0,\"levels_raised\":0,\"dropped\":6,\"replayed\":0,\"recovery_us\":0,\"mttr_us\":0,\"offered\":12,\"completed\":6,\"throughput_per_s\":218163.53887399464,\"retention\":0.48894101876675605,\"survived\":false}]}" );
    ( "campaign csv 200",
      "app,policy,seed,recovery,injected,recoveries,remaps,islands_gated,levels_raised,dropped,replayed,recovery_us,mttr_us,offered,completed,throughput_per_s,efficiency,retention,survived,error\nlu,iced,1,remap,2,2,1,1,0,0,0,0.147465,0.0737327,200,200,22930.8,252285,0.973347,true,\nlu,iced,1,gate,2,2,0,2,0,0,0,0.202765,0.101382,200,200,22930.6,252307,0.973341,true,\nlu,iced,1,raise,1,0,0,0,0,74,0,0,0,200,126,17037,184741,0.455598,false,\nlu,iced,1,fail-stop,1,0,0,0,0,74,0,0,0,200,126,17037,184741,0.455598,false,\nlu,iced,2,remap,2,1,1,0,0,88,99,0.0552995,0.0552995,200,112,17764.1,192387,0.42226,false,\nlu,iced,2,gate,2,1,0,1,0,107,114,0.0460829,0.0460829,200,93,15233.6,183605,0.300679,false,\nlu,iced,2,raise,2,1,0,0,1,161,0,0,0,200,39,17067.2,177134,0.141268,false,\nlu,iced,2,fail-stop,1,0,0,0,0,169,0,0,0,200,31,20562.8,210543,0.135289,false,\n" );
    ( "campaign json 200",
      "{\"app\":\"lu\",\"policy\":\"iced\",\"inputs\":200,\"faults_per_run\":2,\"upset_rate\":0.001,\"baseline_throughput_per_s\":23558.686098421029,\"runs\":[{\"seed\":1,\"recovery\":\"remap\",\"plan\":\"@126 island 8 regulator down; @197 tile 7 dead\",\"injected\":2,\"recoveries\":2,\"remaps\":1,\"islands_gated\":1,\"levels_raised\":0,\"dropped\":0,\"replayed\":0,\"recovery_us\":0.14746543778801843,\"mttr_us\":0.073732718894009217,\"offered\":200,\"completed\":200,\"throughput_per_s\":22930.787064922657,\"retention\":0.97334745108979337,\"survived\":true},{\"seed\":1,\"recovery\":\"gate\",\"plan\":\"@126 island 8 regulator down; @197 tile 7 dead\",\"injected\":2,\"recoveries\":2,\"remaps\":0,\"islands_gated\":2,\"levels_raised\":0,\"dropped\":0,\"replayed\":0,\"recovery_us\":0.20276497695852536,\"mttr_us\":0.10138248847926268,\"offered\":200,\"completed\":200,\"throughput_per_s\":22930.641677550797,\"retention\":0.97334127980455054,\"survived\":true},{\"seed\":1,\"recovery\":\"raise\",\"plan\":\"@126 island 8 regulator down; @197 tile 7 dead\",\"injected\":1,\"recoveries\":0,\"remaps\":0,\"islands_gated\":0,\"levels_raised\":0,\"dropped\":74,\"replayed\":0,\"recovery_us\":0,\"mttr_us\":0,\"offered\":200,\"completed\":126,\"throughput_per_s\":17036.957648747808,\"retention\":0.45559770497687024,\"survived\":false},{\"seed\":1,\"recovery\":\"fail-stop\",\"plan\":\"@126 island 8 regulator down; @197 tile 7 dead\",\"injected\":1,\"recoveries\":0,\"remaps\":0,\"islands_gated\":0,\"levels_raised\":0,\"dropped\":74,\"replayed\":0,\"recovery_us\":0,\"mttr_us\":0,\"offered\":200,\"completed\":126,\"throughput_per_s\":17036.957648747808,\"retention\":0.45559770497687024,\"survived\":false},{\"seed\":2,\"recovery\":\"remap\",\"plan\":\"@31 island 6 upsets (rate 0.001); @39 link t12.N broken\",\"injected\":2,\"recoveries\":1,\"remaps\":1,\"islands_gated\":0,\"levels_raised\":0,\"dropped\":88,\"replayed\":99,\"recovery_us\":0.055299539170506916,\"mttr_us\":0.055299539170506916,\"offered\":200,\"completed\":112,\"throughput_per_s\":17764.083152281579,\"retention\":0.4222598205909463,\"survived\":false},{\"seed\":2,\"recovery\":\"gate\",\"plan\":\"@31 island 6 upsets (rate 0.001); @39 link t12.N broken\",\"injected\":2,\"recoveries\":1,\"remaps\":0,\"islands_gated\":1,\"levels_raised\":0,\"dropped\":107,\"replayed\":114,\"recovery_us\":0.046082949308755762,\"mttr_us\":0.046082949308755762,\"offered\":200,\"completed\":93,\"throughput_per_s\":15233.575643127162,\"retention\":0.30067944555400716,\"survived\":false},{\"seed\":2,\"recovery\":\"raise\",\"plan\":\"@31 island 6 upsets (rate 0.001); @39 link t12.N broken\",\"injected\":2,\"recoveries\":1,\"remaps\":0,\"islands_gated\":0,\"levels_raised\":1,\"dropped\":161,\"replayed\":0,\"recovery_us\":0,\"mttr_us\":0,\"offered\":200,\"completed\":39,\"throughput_per_s\":17067.179710565801,\"retention\":0.14126849136053432,\"survived\":false},{\"seed\":2,\"recovery\":\"fail-stop\",\"plan\":\"@31 island 6 upsets (rate 0.001); @39 link t12.N broken\",\"injected\":1,\"recoveries\":0,\"remaps\":0,\"islands_gated\":0,\"levels_raised\":0,\"dropped\":169,\"replayed\":0,\"recovery_us\":0,\"mttr_us\":0,\"offered\":200,\"completed\":31,\"throughput_per_s\":20562.810260924853,\"retention\":0.13528919130413516,\"survived\":false}]}" );
    ( "campaign render 200",
      "== fault campaign: lu / iced ==\n+------+-----------+----------+-----------+---------+----------+---------+-----------+----------+\n| seed | recovery  | injected | recovered | dropped | replayed | mttr us | retention | verdict  |\n+------+-----------+----------+-----------+---------+----------+---------+-----------+----------+\n| 1    | remap     | 2        | 2         | 0       | 0        | 0.07    | 0.973     | survived |\n| 1    | gate      | 2        | 2         | 0       | 0        | 0.10    | 0.973     | survived |\n| 1    | raise     | 1        | 0         | 74      | 0        | 0.00    | 0.456     | lost     |\n| 1    | fail-stop | 1        | 0         | 74      | 0        | 0.00    | 0.456     | lost     |\n| 2    | remap     | 2        | 1         | 88      | 99       | 0.06    | 0.422     | lost     |\n| 2    | gate      | 2        | 1         | 107     | 114      | 0.05    | 0.301     | lost     |\n| 2    | raise     | 2        | 1         | 161     | 0        | 0.00    | 0.141     | lost     |\n| 2    | fail-stop | 1        | 0         | 169     | 0        | 0.00    | 0.135     | lost     |\n+------+-----------+----------+-----------+---------+----------+---------+-----------+----------+\n\n== survival by recovery policy ==\n+-----------+-------+----------+----------------+--------------+\n| recovery  | cells | survival | mean retention | mean mttr us |\n+-----------+-------+----------+----------------+--------------+\n| remap     | 2     | 1/2      | 0.698          | 0.06         |\n| gate      | 2     | 1/2      | 0.637          | 0.07         |\n| raise     | 2     | 0/2      | 0.298          | 0.00         |\n| fail-stop | 2     | 0/2      | 0.295          | 0.00         |\n+-----------+-------+----------+----------------+--------------+\n" );
  ]

let check prefix () =
  let mine = List.filter (fun (name, _) -> String.starts_with ~prefix name) cases in
  Alcotest.(check int) "every case pinned" (List.length mine)
    (List.length (List.filter (fun (name, _) -> String.starts_with ~prefix name) expected));
  List.iter
    (fun (name, render) ->
      match List.assoc_opt name expected with
      | Some want -> Alcotest.(check string) name want (render ())
      | None -> Alcotest.failf "no pinned bytes for %s" name)
    mine

let suite =
  [
    ("daemon stream replies byte-identical", `Quick, check "stream ");
    ("daemon fault reply byte-identical", `Quick, check "fault ");
    ("lu campaign csv/json/report byte-identical", `Quick, check "campaign ");
  ]
