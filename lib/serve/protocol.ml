(** The versioned wire schema of [catt_d serve]: JSON-lines requests and
    responses, one object per line, over stdin/stdout or a Unix-domain
    socket.

    Design rules:
    - every message carries [schema_version]; a server refuses versions
      it does not speak with a [bad_request] envelope rather than
      guessing;
    - decoding is unknown-field-tolerant — clients may add fields, the
      server looks up only what it knows (and vice versa for responses),
      so the schema can grow without breaking old peers;
    - errors are a typed envelope [{code; message}], never free text, so
      clients can switch on [code] (e.g. retry-on-[overloaded]);
    - scheme strings are {!Experiments.Scheme.of_string} — the same
      parser the CLI flags and cache keys use.

    Everything reuses {!Gpu_util.Json}; this module is codecs only and
    does no I/O. *)

module Json = Gpu_util.Json
module Scheme = Experiments.Scheme

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type simulate_body = {
  workload : string;
  scheme : Scheme.t;
  co_resident : (string * Scheme.t) option;
      (** co-schedule a second (workload, scheme) on the same SMs, as a
          two-member {!Gpusim.Gpu.launch_group} *)
}

type kind =
  | Analyze of string  (** workload name *)
  | Explain of string
  | Simulate of simulate_body
  | Stats

let kind_label = function
  | Analyze _ -> "analyze"
  | Explain _ -> "explain"
  | Simulate _ -> "simulate"
  | Stats -> "stats"

type request = {
  id : string;  (** echoed verbatim in the response; responses may be
                    delivered out of order under concurrency *)
  tenant : string;
  trace_id : string option;
      (** optional client-supplied correlation id; when absent the
          server mints one, so every request is traceable either way *)
  kind : kind;
}

let default_tenant = "default"

(* ------------------------------------------------------------------ *)
(* Error envelope                                                      *)
(* ------------------------------------------------------------------ *)

type error_code =
  | Bad_request  (** unparseable or unsupported request *)
  | Not_found  (** unknown workload *)
  | Overloaded  (** admission control refused; retry later *)
  | Internal  (** handler raised; the message is diagnostic only *)

let error_code_label = function
  | Bad_request -> "bad_request"
  | Not_found -> "not_found"
  | Overloaded -> "overloaded"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad_request" -> Ok Bad_request
  | "not_found" -> Ok Not_found
  | "overloaded" -> Ok Overloaded
  | "internal" -> Ok Internal
  | s -> Error (Printf.sprintf "unknown error code %S" s)

type response = {
  resp_id : string;
  resp_tenant : string;
  result : (Json.t, error_code * string) result;
}

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let request_to_json (r : request) =
  let base =
    [
      ("schema_version", Json.Int schema_version);
      ("id", Json.String r.id);
      ("tenant", Json.String r.tenant);
      ("kind", Json.String (kind_label r.kind));
    ]
    @
    match r.trace_id with
    | None -> []
    | Some tid -> [ ("trace_id", Json.String tid) ]
  in
  let params =
    match r.kind with
    | Analyze w | Explain w -> [ ("workload", Json.String w) ]
    | Stats -> []
    | Simulate b ->
      [
        ("workload", Json.String b.workload);
        ("scheme", Json.String (Scheme.label b.scheme));
      ]
      @ (match b.co_resident with
        | None -> []
        | Some (w2, s2) ->
          [
            ( "co_resident",
              Json.Obj
                [
                  ("workload", Json.String w2);
                  ("scheme", Json.String (Scheme.label s2));
                ] );
          ])
  in
  Json.Obj (base @ params)

let response_to_json (r : response) =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("id", Json.String r.resp_id);
       ("tenant", Json.String r.resp_tenant);
     ]
    @
    match r.result with
    | Ok payload -> [ ("ok", Json.Bool true); ("result", payload) ]
    | Error (code, message) ->
      [
        ("ok", Json.Bool false);
        ( "error",
          Json.Obj
            [
              ("code", Json.String (error_code_label code));
              ("message", Json.String message);
            ] );
      ])

(* ------------------------------------------------------------------ *)
(* Decoding (unknown-field tolerant: only known members are looked up) *)
(* ------------------------------------------------------------------ *)

let member_str_opt name j =
  match Json.member_opt name j with
  | None | Some Json.Null -> None
  | Some v -> Some (Json.to_str v)

let max_string_bytes = 256
(** Longest [id], [tenant] or [trace_id] a request may carry: each is
    echoed, logged and kept per tenant, so an unbounded one is refused
    at decode time (and never echoed back). *)

let bounded_str_opt name j =
  match member_str_opt name j with
  | Some s when String.length s > max_string_bytes ->
    raise
      (Json.Type_error
         (Printf.sprintf "%s is longer than %d bytes" name max_string_bytes))
  | v -> v

let check_version j =
  match Json.member_opt "schema_version" j with
  | None -> Error "missing schema_version"
  | Some v ->
    let v = Json.to_int v in
    if v <> schema_version then
      Error
        (Printf.sprintf "unsupported schema_version %d (this server speaks %d)"
           v schema_version)
    else Ok ()

let scheme_of_member name j =
  match member_str_opt name j with
  | None -> Ok Scheme.Baseline
  | Some s -> Scheme.of_string s

let request_of_json j : (request, string) result =
  try
    match check_version j with
    | Error _ as e -> e
    | Ok () -> (
      let id = Option.value ~default:"" (bounded_str_opt "id" j) in
      let tenant =
        Option.value ~default:default_tenant (bounded_str_opt "tenant" j)
      in
      let trace_id = bounded_str_opt "trace_id" j in
      let require_workload k =
        match member_str_opt "workload" j with
        | Some w -> Ok (k w)
        | None -> Error "missing workload"
      in
      let kind =
        match member_str_opt "kind" j with
        | None -> Error "missing kind"
        | Some "analyze" -> require_workload (fun w -> Analyze w)
        | Some "explain" -> require_workload (fun w -> Explain w)
        | Some "stats" -> Ok Stats
        | Some "simulate" -> (
          match member_str_opt "workload" j with
          | None -> Error "missing workload"
          | Some workload -> (
            match scheme_of_member "scheme" j with
            | Error msg -> Error msg
            | Ok scheme -> (
              match Json.member_opt "co_resident" j with
              | None | Some Json.Null ->
                Ok (Simulate { workload; scheme; co_resident = None })
              | Some co -> (
                match member_str_opt "workload" co with
                | None -> Error "co_resident: missing workload"
                | Some w2 -> (
                  match scheme_of_member "scheme" co with
                  | Error msg -> Error msg
                  | Ok s2 ->
                    Ok
                      (Simulate
                         {
                           workload;
                           scheme;
                           co_resident = Some (w2, s2);
                         }))))))
        | Some other -> Error (Printf.sprintf "unknown kind %S" other)
      in
      match kind with
      | Error _ as e -> e
      | Ok kind ->
        Ok { id; tenant; trace_id; kind })
  with Json.Type_error msg -> Error msg

let response_of_json j : (response, string) result =
  try
    match check_version j with
    | Error _ as e -> e
    | Ok () ->
      let resp_id = Option.value ~default:"" (member_str_opt "id" j) in
      let resp_tenant =
        Option.value ~default:default_tenant (member_str_opt "tenant" j)
      in
      if Json.to_bool (Json.member "ok" j) then
        Ok { resp_id; resp_tenant; result = Ok (Json.member "result" j) }
      else
        let e = Json.member "error" j in
        let code_str = Json.to_str (Json.member "code" e) in
        let message = Json.to_str (Json.member "message" e) in
        (match error_code_of_string code_str with
        | Error msg -> Error msg
        | Ok code ->
          Ok { resp_id; resp_tenant; result = Error (code, message) })
  with Json.Type_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Lines                                                               *)
(* ------------------------------------------------------------------ *)

let request_of_line line : (request, string) result =
  match Json.of_string line with
  | Error msg -> Error (Printf.sprintf "invalid JSON: %s" msg)
  | Ok j -> request_of_json j

(** Best-effort [id] (and tenant) recovery from a line whose decode
    failed — e.g. an unsupported [schema_version].  Lets the error
    envelope still correlate with the request; each defaults to
    unknown/[default_tenant] when unreadable or over-long. *)
let salvage_identity line =
  match Json.of_string line with
  | Error _ -> ("", default_tenant)
  | Ok j ->
    let field name ~default =
      try Option.value ~default (bounded_str_opt name j)
      with Json.Type_error _ -> default
    in
    (field "id" ~default:"", field "tenant" ~default:default_tenant)

let request_to_line r = Json.to_string (request_to_json r)
let response_to_line r = Json.to_string (response_to_json r)
