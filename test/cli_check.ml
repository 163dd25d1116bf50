(** End-to-end check of the [catt_cli] binary, run under the [@cli] alias
    (and hence [dune runtest]): the [experiments] subcommand renders the
    lint-all artifact byte-for-byte as its golden, unknown names exit 2
    with one stderr line, and out-of-range device, geometry and scheme
    flags are refused as option errors (exit 124) where they are parsed —
    never as an uncaught exception.

    Usage: cli_check CATT_CLI_BINARY *)

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* run [binary args], returning (exit code, stdout, stderr) *)
let run binary args =
  let out = Filename.temp_file "cli_check" ".out"
  and err = Filename.temp_file "cli_check" ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = open_w out and fd_err = open_w err in
  let pid =
    Unix.create_process binary
      (Array.of_list (binary :: args))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* (a) the output is a "==== title ====" header and a blank line, the
   artifact's render, a blank line, then the summary line *)
let check_lint_golden binary =
  let code, out, _ =
    run binary [ "experiments"; "lint-all"; "--no-cache"; "--quiet" ]
  in
  check "experiments lint-all exits 0" (code = 0);
  let golden = read_file (Filename.concat "golden_profiles" "lint_all.txt") in
  let matches =
    match (lines out, List.rev (lines out)) with
    | title :: _, summary :: _ ->
      String.starts_with ~prefix:"==== " title
      && String.starts_with ~prefix:"summary:" summary
      && out = title ^ "\n\n" ^ golden ^ "\n\n" ^ summary ^ "\n"
    | _ -> false
  in
  check "experiments lint-all matches golden_profiles/lint_all.txt" matches

(* (b) an unknown name is a usage error of its own: exit 2, one line *)
let check_unknown binary args =
  let code, _, err = run binary args in
  check
    (Printf.sprintf "%s exits 2 with one stderr line" (String.concat " " args))
    (code = 2 && List.length (lines err) = 1)

(* (c) a bad flag value is a cmdliner option error *)
let check_refused ?(label = Fun.id) binary args =
  let code, _, err = run binary args in
  check
    (Printf.sprintf "%s exits 124 without an uncaught exception"
       (String.concat " " (List.map label args)))
    (code = 124 && not (contains ~sub:"uncaught exception" err))

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: cli_check CATT_CLI_BINARY";
    exit 1
  end;
  let binary = Sys.argv.(1) in
  check_lint_golden binary;
  check_unknown binary [ "experiments"; "nope" ];
  check_unknown binary [ "run"; "NOPE" ];
  let kernel = Filename.temp_file "cli_check" ".cu" in
  Out_channel.with_open_bin kernel (fun oc ->
      output_string oc
        "__global__ void k(float *a) { a[threadIdx.x] = 1.0; }\n");
  let label a = if a = kernel then "K.cu" else a in
  List.iter (check_refused ~label binary)
    [
      [ "run"; "ATAX"; "--sms"; "0" ];
      [ "run"; "ATAX"; "--onchip"; "0" ];
      [ "run"; "ATAX"; "--scheme"; "swl(0)" ];
      [ "analyze"; kernel; "--block"; "0" ];
    ];
  Sys.remove kernel;
  if !failures > 0 then begin
    Printf.printf "%d CLI check(s) failed\n" !failures;
    exit 1
  end
