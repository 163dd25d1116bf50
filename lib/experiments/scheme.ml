(** The throttling schemes an experiment cell can run under — one shared
    definition for CLI flags, the wire protocol, and cache keys.

    [label] and [of_string] are inverses on every constructor (checked by
    the property tests over {!samples}), so persisted results, serve
    requests and command-line arguments all round-trip through the same
    strings. *)

type t =
  | Baseline
  | Catt
  | Fixed of int * int  (** BFTT-style: split warps by N, drop M TBs *)
  | Dynamic  (** DYNCTA runtime throttling *)
  | CcwsSched
  | DawsSched
  | Swl of int  (** static warp limiting at k warps per SM *)
  | Bypass
  | CattSa  (** CATT with the sharpened interval/reuse footprint (Eq. 8') *)
  | Ciao  (** interference-aware selective bypassing/throttling (CIAO) *)
  | Ata  (** aggregated-tag-array L1D: promote to data storage on reuse *)

let label = function
  | Baseline -> "baseline"
  | Catt -> "CATT"
  | Fixed (n, m) -> Printf.sprintf "fixed(N=%d,M=%d)" n m
  | Dynamic -> "dynamic"
  | CcwsSched -> "ccws"
  | DawsSched -> "daws"
  | Swl k -> Printf.sprintf "swl(%d)" k
  | Bypass -> "bypass"
  | CattSa -> "catt-sa"
  | Ciao -> "ciao"
  | Ata -> "ata"

(** Inverse of {!label} (case-insensitive on the fixed names) on every
    runnable scheme: [fixed(N,M)] needs N >= 1 and M >= 0, [swl(k)] needs
    k >= 1, so an out-of-range value is refused where it is decoded. *)
let of_string s : (t, string) result =
  match String.lowercase_ascii (String.trim s) with
  | "baseline" -> Ok Baseline
  | "catt" -> Ok Catt
  | "dynamic" -> Ok Dynamic
  | "ccws" -> Ok CcwsSched
  | "daws" -> Ok DawsSched
  | "bypass" -> Ok Bypass
  | "catt-sa" -> Ok CattSa
  | "ciao" -> Ok Ciao
  | "ata" -> Ok Ata
  | lower -> (
    try
      Scanf.sscanf lower "fixed(n=%d,m=%d)%!" (fun n m ->
          if n < 1 || m < 0 then
            Error
              (Printf.sprintf "scheme %S: fixed(N,M) needs N >= 1 and M >= 0" s)
          else Ok (Fixed (n, m)))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
      try
        Scanf.sscanf lower "swl(%d)%!" (fun k ->
            if k < 1 then
              Error (Printf.sprintf "scheme %S: swl(k) needs k >= 1" s)
            else Ok (Swl k))
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        Error
          (Printf.sprintf
             "unknown scheme %S (expected baseline, CATT, fixed(N=..,M=..), \
              dynamic, ccws, daws, swl(..), bypass, catt-sa, ciao or ata)"
             s)))

(** Exhaustiveness guard, in the spirit of [Cache.config_fingerprint]: a
    wildcard-free match over every constructor.  Adding a constructor and
    forgetting to extend {!samples} (and hence the [label]/[of_string]
    round-trip property) is a compile error, not a silently untested
    scheme. *)
let sample_of = function
  | Baseline -> Baseline
  | Catt -> Catt
  | Fixed _ -> Fixed (2, 1)
  | Dynamic -> Dynamic
  | CcwsSched -> CcwsSched
  | DawsSched -> DawsSched
  | Swl _ -> Swl 4
  | Bypass -> Bypass
  | CattSa -> CattSa
  | Ciao -> Ciao
  | Ata -> Ata

(** One representative of every constructor — the corpus the round-trip
    property tests (and the serve protocol tests) iterate over. *)
let samples =
  List.map sample_of
    [
      Baseline; Catt; Fixed (0, 0); Dynamic; CcwsSched; DawsSched; Swl 0;
      Bypass; CattSa; Ciao; Ata;
    ]

(** Whether the scheme's throttling decision is made entirely at compile
    time.  Runtime-throttled schemes carry per-SM scheduler state that a
    co-resident group cannot attribute to one kernel, so a
    {!Gpusim.Gpu.launch_group} of more than one member only accepts static
    schemes. *)
let is_static = function
  | Baseline | Catt | Fixed _ | Bypass | CattSa -> true
  | Dynamic | CcwsSched | DawsSched | Swl _ | Ciao | Ata -> false
