(** Shared Cmdliner pieces for the repo's executables.

    [catt_cli] and [catt_d] both take device-shape and parallelism
    options (and [catt_cli] a scheme); defining the converters and terms
    once keeps the flags spelled, documented and range-checked
    identically everywhere.  A
    device or geometry value below 1 is refused as an option error
    (exit 124) where it is parsed, never deeper as an uncaught
    [Invalid_argument] from {!Gpusim.Config.validate}. *)

open Cmdliner

(** Parses ["N"], ["N,M"] or ["NxM"] into a grid/block geometry pair (the
    second component defaults to 1); both components must be >= 1. *)
let pair_of_string s =
  let parts =
    match String.split_on_char ',' s with
    | [ _ ] -> String.split_on_char 'x' (String.lowercase_ascii s)
    | parts -> parts
  in
  let int_of p = int_of_string_opt (String.trim p) in
  let positive (x, y) =
    if x >= 1 && y >= 1 then Ok (x, y)
    else Error (Printf.sprintf "dimensions must be >= 1, found %S" s)
  in
  match parts with
  | [ x ] -> (
    match int_of x with
    | Some x -> positive (x, 1)
    | None -> Error (Printf.sprintf "expected an integer, found %S" s))
  | [ x; y ] -> (
    match (int_of x, int_of y) with
    | Some x, Some y -> positive (x, y)
    | _ -> Error (Printf.sprintf "expected N,M or NxM, found %S" s))
  | _ -> Error (Printf.sprintf "expected N or N,M, found %S" s)

let conv_of_result parse print =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (parse s)), print)

let pair : (int * int) Arg.conv =
  conv_of_result pair_of_string (fun fmt (x, y) -> Format.fprintf fmt "%d,%d" x y)

(** A count or size that must be at least 1. *)
let positive_int : int Arg.conv =
  conv_of_result
    (fun s ->
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (Printf.sprintf "expected an integer >= 1, found %S" s))
    Format.pp_print_int

(** Every runnable {!Experiments.Scheme.t}, in the spelling of
    {!Experiments.Scheme.of_string} — the one the wire protocol and cache
    keys use, so an out-of-range [swl(0)] is refused here too. *)
let scheme : Experiments.Scheme.t Arg.conv =
  conv_of_result Experiments.Scheme.of_string (fun fmt s ->
      Format.pp_print_string fmt (Experiments.Scheme.label s))

(* ------------------------------------------------------------------ *)
(* The flags every tool shares                                         *)
(* ------------------------------------------------------------------ *)

let onchip =
  Arg.(
    value
    & opt positive_int Experiments.Configs.default_onchip_kb
    & info [ "onchip" ] ~docv:"KB"
        ~doc:"on-chip memory (L1D+shared) per SM, KB")

let sms =
  Arg.(
    value
    & opt positive_int Experiments.Configs.default_num_sms
    & info [ "sms" ] ~docv:"N" ~doc:"number of SMs")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "worker domains for parallel sweeps (1 = sequential, 0 = one per \
           core)")

let no_cache =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"do not read or write the persistent result cache")

(** Scaled device built from [--onchip]/[--sms]. *)
let config =
  let make onchip_kb sms =
    Gpusim.Config.scaled ~num_sms:sms ~onchip_bytes:(onchip_kb * 1024) ()
  in
  Term.(const make $ onchip $ sms)
