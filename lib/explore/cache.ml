module J = Iced_util.Json

type record = Outcome.status

type recovery = {
  kept_records : int;  (* intact frames replayed from the prefix *)
  dropped_bytes : int;  (* bytes cut (or set aside) past the valid prefix *)
  renamed_bak : bool;  (* the whole file was foreign/old and moved to .bak *)
}

(* One mutex guards the whole store: the in-memory tier, the hit/miss
   accounting, and the append channel of the persistent tier.  The
   condition variable serves [find_or_store]: a domain that finds its
   key in flight on another domain parks here until the evaluator
   broadcasts. *)
type t = {
  table : (string, record) Hashtbl.t;
  in_flight : (string, unit) Hashtbl.t;
  mu : Mutex.t;
  changed : Condition.t;
  file : out_channel option;
  path : string option;
  fsync : bool;
  recovery : recovery option;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
}

let version = 2

(* ------------------------------------------------------------------ *)
(* keys                                                                *)

let key ?(backend = "default") (p : Space.point) (kernel : Iced_kernels.Kernel.t) =
  let nodes, edges, rec_mii =
    Iced_kernels.Kernel.stats (Iced_kernels.Kernel.dfg_at kernel ~factor:p.Space.unroll)
  in
  let base =
    Printf.sprintf "%s|%s|%d,%d,%d" (Space.to_string p) kernel.Iced_kernels.Kernel.name
      nodes edges rec_mii
  in
  (* the default backend's keys stay byte-identical to every store
     written before backends existed; only non-default runs fork *)
  if backend = "default" then base else base ^ "|" ^ backend

let content_hash s = Iced_util.Fnv.(to_hex (hash_string s))

(* ------------------------------------------------------------------ *)
(* records                                                             *)

let record_to_line key (r : record) =
  let fields =
    match r with
    | Outcome.Mapped m ->
      [ ("s", J.Str "ok"); ("kernel", J.Str m.Outcome.kernel); ("ii", J.int m.Outcome.ii);
        ("util", J.Num m.Outcome.utilization); ("dvfs", J.Num m.Outcome.dvfs);
        ("power", J.Num m.Outcome.power_mw); ("thpt", J.Num m.Outcome.throughput_mips);
        ("energy", J.Num m.Outcome.energy_nj); ("edp", J.Num m.Outcome.edp) ]
    | Outcome.Failed msg -> [ ("s", J.Str "fail"); ("msg", J.Str msg) ]
    | Outcome.Timed_out -> [ ("s", J.Str "timeout") ]
  in
  J.to_string
    (J.Obj
       (("v", J.int version) :: ("h", J.Str (content_hash key)) :: ("k", J.Str key) :: fields))

(* Decode one stored payload back to a (key, record); [None] on any
   malformed input.  A checksummed frame whose payload fails here was
   written intentionally but by an unknown future writer — the loader
   skips the entry and keeps scanning (the frame itself is intact). *)
let record_of_line line =
  match J.parse line with
  | Error _ -> None
  | Ok v -> (
    let str name = Option.bind (J.member name v) J.get_string in
    let num name = Option.bind (J.member name v) J.get_number in
    let int name = Option.bind (J.member name v) J.get_int in
    match (int "v", str "k", str "s") with
    | Some v, Some key, Some status when v = version -> (
      match status with
      | "ok" -> (
        match
          (str "kernel", int "ii", num "util", num "dvfs", num "power", num "thpt",
           num "energy", num "edp")
        with
        | Some kernel, Some ii, Some util, Some dvfs, Some power, Some thpt,
          Some energy, Some edp ->
          Some
            ( key,
              Outcome.Mapped
                {
                  Outcome.kernel;
                  ii;
                  utilization = util;
                  dvfs;
                  power_mw = power;
                  throughput_mips = thpt;
                  energy_nj = energy;
                  edp;
                } )
        | _ -> None)
      | "fail" -> Option.map (fun msg -> (key, Outcome.Failed msg)) (str "msg")
      | "timeout" -> Some (key, Outcome.Timed_out)
      | _ -> None)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* the write-ahead framing                                             *)
(*                                                                     *)
(* Each appended record is wrapped                                     *)
(*                                                                     *)
(*   LLLLLLLL:HHHHHHHHHHHHHHHH:<payload>\n                             *)
(*                                                                     *)
(* where L is the payload byte length (8 hex digits) and H the FNV-1a  *)
(* of the payload (16 hex digits).  A crash — including kill -9 — can  *)
(* only tear the record being appended: the torn tail fails the        *)
(* length, newline, or checksum check, the loader truncates there, and *)
(* every frame before it is replayed intact.                           *)

let header_line =
  J.to_string (J.Obj [ ("iced_explore_cache", J.int version) ]) ^ "\n"

let frame payload =
  Printf.sprintf "%08x:%s:%s\n" (String.length payload) (content_hash payload) payload

let frame_record ~key status = frame (record_to_line key status)

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let hex_span s off len =
  let ok = ref true in
  for i = off to off + len - 1 do
    if not (is_hex s.[i]) then ok := false
  done;
  !ok

(* Scan the region after the header for intact frames.  Returns the
   (payload offset, payload length) of each, in order, and the byte
   offset where scanning stopped — the end of the valid prefix. *)
let scan_frames s start =
  let len = String.length s in
  let rec go off acc =
    if off = len then (List.rev acc, off)
    else if off + 26 > len then (List.rev acc, off)
    else if s.[off + 8] <> ':' || s.[off + 25] <> ':' then (List.rev acc, off)
    else if not (hex_span s off 8 && hex_span s (off + 9) 16) then (List.rev acc, off)
    else
      let plen = int_of_string ("0x" ^ String.sub s off 8) in
      let payload_off = off + 26 in
      if payload_off + plen + 1 > len then (List.rev acc, off)
      else if s.[payload_off + plen] <> '\n' then (List.rev acc, off)
      else
        let payload = String.sub s payload_off plen in
        if content_hash payload <> String.sub s (off + 9) 16 then (List.rev acc, off)
        else go (payload_off + plen + 1) ((payload_off, plen) :: acc)
  in
  go start []

let wal_entries s =
  let hlen = String.length header_line in
  if String.length s < hlen || String.sub s 0 hlen <> header_line then []
  else fst (scan_frames s hlen)

(* ------------------------------------------------------------------ *)
(* store                                                               *)

let make ?recovery ~fsync ~file ~path table =
  {
    table;
    in_flight = Hashtbl.create 8;
    mu = Mutex.create ();
    changed = Condition.create ();
    file;
    path;
    fsync;
    recovery;
    hits = 0;
    misses = 0;
    coalesced = 0;
  }

let in_memory () = make ~fsync:false ~file:None ~path:None (Hashtbl.create 64)

let sync oc = Unix.fsync (Unix.descr_of_out_channel oc)

let read_all path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let fresh_file ~fsync path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  output_string oc header_line;
  flush oc;
  if fsync then sync oc;
  oc

let open_file ?(fsync = false) path =
  let table = Hashtbl.create 64 in
  let recovery = ref None in
  let file =
    if not (Sys.file_exists path) then fresh_file ~fsync path
    else begin
      let s = read_all path in
      let total = String.length s in
      let hlen = String.length header_line in
      if total = 0 then fresh_file ~fsync path
      else if total < hlen || String.sub s 0 hlen <> header_line then begin
        (* foreign or older-version store: preserve it, then restart *)
        recovery := Some { kept_records = 0; dropped_bytes = total; renamed_bak = true };
        (try Sys.rename path (path ^ ".bak") with Sys_error _ -> ());
        fresh_file ~fsync path
      end
      else begin
        let frames, valid_end = scan_frames s hlen in
        List.iter
          (fun (off, len) ->
            match record_of_line (String.sub s off len) with
            | Some (key, record) -> Hashtbl.replace table key record
            | None -> ())
          frames;
        if valid_end < total then begin
          recovery :=
            Some
              {
                kept_records = List.length frames;
                dropped_bytes = total - valid_end;
                renamed_bak = false;
              };
          Unix.truncate path valid_end
        end;
        open_out_gen [ Open_wronly; Open_append ] 0o644 path
      end
    end
  in
  (match !recovery with
  | None -> ()
  | Some r ->
    Iced_obs.Metrics.incr "cache.recoveries";
    Iced_obs.Metrics.incr ~by:r.dropped_bytes "cache.recovered_bytes_dropped";
    Printf.eprintf
      "[cache] recovered %s: kept %d record%s, %s %d trailing byte%s\n%!" path
      r.kept_records
      (if r.kept_records = 1 then "" else "s")
      (if r.renamed_bak then "set aside (as .bak)" else "truncated")
      r.dropped_bytes
      (if r.dropped_bytes = 1 then "" else "s"))
  ;
  make ?recovery:!recovery ~fsync ~file:(Some file) ~path:(Some path) table

let close t =
  Mutex.protect t.mu (fun () ->
      match t.file with
      | Some oc ->
        flush oc;
        if t.fsync then sync oc;
        close_out oc
      | None -> ())

let find t key =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some r ->
        t.hits <- t.hits + 1;
        Some r
      | None ->
        t.misses <- t.misses + 1;
        None)

(* caller holds [t.mu] *)
let store_locked t ~key status =
  match status with
  | Outcome.Timed_out -> ()
  | _ ->
    Hashtbl.replace t.table key status;
    (match t.file with
    | Some oc ->
      output_string oc (frame_record ~key status);
      flush oc;
      if t.fsync then sync oc
    | None -> ())

let store t ~key status = Mutex.protect t.mu (fun () -> store_locked t ~key status)

let find_or_store t ~key evaluate =
  Mutex.lock t.mu;
  let rec resolve () =
    match Hashtbl.find_opt t.table key with
    | Some r ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.mu;
      r
    | None ->
      if Hashtbl.mem t.in_flight key then begin
        (* another domain is evaluating this key right now: park until
           it stores (or gives up), then re-check — one evaluation
           serves every coalesced caller *)
        t.coalesced <- t.coalesced + 1;
        Condition.wait t.changed t.mu;
        resolve ()
      end
      else begin
        Hashtbl.replace t.in_flight key ();
        t.misses <- t.misses + 1;
        Mutex.unlock t.mu;
        let finish () =
          Hashtbl.remove t.in_flight key;
          Condition.broadcast t.changed
        in
        match evaluate () with
        | r ->
          Mutex.lock t.mu;
          store_locked t ~key r;
          finish ();
          Mutex.unlock t.mu;
          r
        | exception e ->
          Mutex.lock t.mu;
          finish ();
          Mutex.unlock t.mu;
          raise e
      end
  in
  resolve ()

let size t = Mutex.protect t.mu (fun () -> Hashtbl.length t.table)
let hits t = Mutex.protect t.mu (fun () -> t.hits)
let misses t = Mutex.protect t.mu (fun () -> t.misses)
let coalesced t = Mutex.protect t.mu (fun () -> t.coalesced)
let path t = t.path
let recovery t = t.recovery
