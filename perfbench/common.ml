(** Shared plumbing: the device config, cells and their reference record,
    clocks, memory readings and the result printer. *)

module Json = Gpu_util.Json
module Runner = Experiments.Runner
module Scheme = Experiments.Scheme
module Rules = Perfbench_rules.Rules

(** The device every front end uses by default ([catt_d] and [catt_cli]
    without [--onchip]/[--sms]), so in-process cells and daemon replies
    describe the same simulation. *)
let cfg =
  Gpusim.Config.scaled ~num_sms:Experiments.Configs.default_num_sms
    ~onchip_bytes:(Experiments.Configs.default_onchip_kb * 1024)
    ()

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Runs [f 0], [f 1], ... — at least [min_passes] of them, then more
    while the next is predicted (by the last one's [wall] time) to end
    inside [seconds].  A pass is a whole unit of work, so a run never
    stops part-way through one. *)
let passes ~seconds ~min_passes ~wall f =
  let t0 = now () in
  let rec go i acc =
    let p = f i in
    let acc = p :: acc in
    if i + 1 < min_passes || now () -. t0 +. wall p <= seconds then
      go (i + 1) acc
    else List.rev acc
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

type cell = { w : Workloads.Workload.t; scheme : Scheme.t }

let cell_key c = c.w.Workloads.Workload.name ^ "/" ^ Scheme.label c.scheme

let cells_of workloads schemes =
  List.concat_map (fun w -> List.map (fun scheme -> { w; scheme }) schemes)
    workloads

let shuffle rng xs =
  let a = Array.of_list xs in
  Gpu_util.Rng.shuffle rng a;
  Array.to_list a

(** A co-resident pair as the wire names it: CS member first. *)
type pair = { a : cell; b : cell }

let pair_key p = cell_key p.a ^ "+" ^ cell_key p.b

(* ------------------------------------------------------------------ *)
(* Reference record                                                    *)
(* ------------------------------------------------------------------ *)

(** What a correct cell produced on the tree the benchmark was defined
    on: the model's exact counts, summed over kernels, and the digest of
    the [simulate] reply payload. *)
type expect = {
  cycles : int;
  instructions : int;
  l1_accesses : int;
  l1_hits : int;
  l1_misses : int;
  payload_md5 : string;
}

let counts (r : Runner.app_run) =
  let sum f =
    List.fold_left (fun acc (k : Runner.kernel_stats) -> acc + f k.Runner.stats)
      0 r.Runner.kernels
  in
  ( r.Runner.total_cycles,
    sum (fun s -> s.Gpusim.Stats.instructions),
    sum (fun s -> s.Gpusim.Stats.l1_accesses),
    sum (fun s -> s.Gpusim.Stats.l1_hits),
    sum (fun s -> s.Gpusim.Stats.l1_misses) )

let md5 s = Digest.to_hex (Digest.string s)

(** The exact bytes [catt_d] sends as a solo [simulate] result. *)
let payload r = Json.to_string (Serve.Server.run_summary r)

let pair_payload ra rb =
  Json.to_string
    (Json.Obj
       [
         ("co_resident", Json.Bool true);
         ("a", Serve.Server.run_summary ra);
         ("b", Serve.Server.run_summary rb);
       ])

let expect_of_run r =
  let cycles, instructions, l1_accesses, l1_hits, l1_misses = counts r in
  { cycles; instructions; l1_accesses; l1_hits; l1_misses;
    payload_md5 = md5 (payload r) }

let expect_to_json e =
  Json.Obj
    [
      ("cycles", Json.Int e.cycles);
      ("instructions", Json.Int e.instructions);
      ("l1_accesses", Json.Int e.l1_accesses);
      ("l1_hits", Json.Int e.l1_hits);
      ("l1_misses", Json.Int e.l1_misses);
      ("payload_md5", Json.String e.payload_md5);
    ]

let expect_of_json j =
  let i n = Json.to_int (Json.member n j) in
  {
    cycles = i "cycles";
    instructions = i "instructions";
    l1_accesses = i "l1_accesses";
    l1_hits = i "l1_hits";
    l1_misses = i "l1_misses";
    payload_md5 = Json.to_str (Json.member "payload_md5" j);
  }

let reference_path = Filename.concat "perfbench" "reference.json"

type reference = {
  cells : (string, expect) Hashtbl.t;
  pairs : (string, string) Hashtbl.t;  (** pair key -> payload md5 *)
}

let load_reference () =
  let text =
    In_channel.with_open_bin reference_path In_channel.input_all
  in
  let j =
    match Json.of_string text with
    | Ok j -> j
    | Error msg -> failwith ("reference.json: " ^ msg)
  in
  let cells = Hashtbl.create 128 and pairs = Hashtbl.create 16 in
  (match Json.member "cells" j with
  | Json.Obj kvs ->
    List.iter (fun (k, v) -> Hashtbl.replace cells k (expect_of_json v)) kvs
  | _ -> failwith "reference.json: cells must be an object");
  (match Json.member "pairs" j with
  | Json.Obj kvs ->
    List.iter (fun (k, v) -> Hashtbl.replace pairs k (Json.to_str v)) kvs
  | _ -> failwith "reference.json: pairs must be an object");
  { cells; pairs }

(** Checks an in-process run against its reference; [Error] says why. *)
let check_run reference c (r : Runner.app_run) =
  match Hashtbl.find_opt reference.cells (cell_key c) with
  | None -> Error ("no reference for " ^ cell_key c)
  | Some e ->
    let cycles, instructions, l1_accesses, l1_hits, l1_misses = counts r in
    if r.Runner.verified <> Ok () then Error (cell_key c ^ ": oracle failed")
    else if
      (cycles, instructions, l1_accesses, l1_hits, l1_misses)
      <> (e.cycles, e.instructions, e.l1_accesses, e.l1_hits, e.l1_misses)
    then Error (cell_key c ^ ": counters differ from the reference")
    else Ok ()

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(** Peak resident set (VmHWM) of a process, in MB; [nan] if unreadable. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status"
      (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.
        | exception _ -> acc)
      nan
      (String.split_on_char '\n' text)

(** User plus system CPU seconds of process [pid] so far, every thread
    included, dead ones too; [0] is this process.  Unlike wall time it
    leaves out the time the host gives to anything else.  Another
    process's is read from /proc in clock ticks of 1/100 s. *)
let cpu_s pid =
  if pid = 0 then
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  else
    match
      In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
        In_channel.input_all
    with
    | exception Sys_error _ -> nan
    | text ->
      (* the command name may hold spaces: count fields from its ')' *)
      let i = String.rindex text ')' + 2 in
      let f =
        Array.of_list
          (String.split_on_char ' ' (String.sub text i (String.length text - i)))
      in
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(** Prints one line per metric, then the JSON result — [correct],
    [attempted], [failed] and every metric with its unit — as the last
    line of stdout, where tools read it. *)
let print_result ~workload ~correct (tally : Rules.tally) metrics =
  List.iter
    (fun m ->
      Printf.printf "%-12s %-34s %16.6f %-8s %s\n" workload m.name m.value
        m.unit_ m.note)
    metrics;
  Printf.printf "%-12s %-34s %16.6f %-8s (%d of %d ops failed)\n" workload
    "failed_share" (Rules.failed_share tally) "share" tally.Rules.failed
    tally.Rules.attempted;
  let num v =
    if Float.is_finite v then Json.Float v else Json.Null
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int tally.Rules.attempted);
            ("failed", Json.Int tally.Rules.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Json.Obj
                         [ ("value", num m.value); ("unit", Json.String m.unit_) ]
                     ))
                   metrics) );
          ]))

(** A figure printed for the reader but not part of the JSON result. *)
let info ~workload ?(note = "") name unit_ value =
  Printf.printf "%-12s %-34s %16.6f %-8s %s\n" workload name value unit_ note

(** A failed op's diagnosis goes to stderr, so stdout keeps its shape. *)
let complain fmt = Printf.ksprintf prerr_endline fmt
