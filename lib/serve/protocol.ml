module Pipeline = Tqec_compress.Pipeline
module Placer = Tqec_place.Placer

(* ------------------------------------------------------------------ *)
(* Framing: 4-byte big-endian length prefix + JSON payload            *)
(* ------------------------------------------------------------------ *)

(* Bounds hostile or corrupt length prefixes: a daemon must never let a
   single frame demand an unbounded allocation. *)
let max_frame = 1 lsl 26

exception Framing_error of string

let really_read fd buf ofs len =
  let got = ref 0 in
  while !got < len do
    match Unix.read fd buf (ofs + !got) (len - !got) with
    | 0 -> raise End_of_file
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let really_write fd s =
  let buf = Bytes.of_string s in
  let len = Bytes.length buf in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write fd buf !sent (len - !sent) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then
    raise (Framing_error (Printf.sprintf "frame too large (%d bytes)" n));
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (n land 0xff));
  really_write fd (Bytes.to_string hdr ^ payload)

let read_frame fd =
  let hdr = Bytes.create 4 in
  really_read fd hdr 0 4;
  let b i = Char.code (Bytes.get hdr i) in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  if n > max_frame then
    raise (Framing_error (Printf.sprintf "frame too large (%d bytes)" n));
  let buf = Bytes.create n in
  really_read fd buf 0 n;
  Bytes.to_string buf

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

type input =
  | Qct of { name : string; text : string }
  | Named of { name : string; scale : int }

type knobs = {
  variant : Pipeline.variant;
  effort : Placer.effort;
  seed : int;
  restarts : int;
  jobs : int option;
  early_stop : float option;
  partition : int option;
  corridor : int option;
  debug : bool;
  verify : bool;
}

(* Mirrors `tqecc compress` flag defaults, so a request that sets
   nothing gets the bytes a bare CLI run would print. *)
let default_knobs =
  {
    variant = Pipeline.Full;
    effort = Placer.Quick;
    seed = 42;
    restarts = 1;
    jobs = None;
    early_stop = Pipeline.default_config.Pipeline.early_stop_margin;
    partition = None;
    corridor = None;
    debug = false;
    verify = false;
  }

type request =
  | Compress of { input : input; knobs : knobs }
  | Stats
  | Shutdown

type server_stats = {
  sv_hits : int;
  sv_misses : int;
  sv_entries : int;
  sv_bytes : int;
  sv_served : int;
  sv_busy : int;
  sv_errors : int;
  sv_in_flight : int;
  sv_capacity : int;
}

type response =
  | Progress of { stage : string; seconds : float }
  | Result of { payload : string; cached : bool; timings : (string * float) list }
  | Busy of { in_flight : int; capacity : int }
  | Failed of { message : string }
  | Stats_reply of server_stats
  | Bye

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let variant_name = function
  | Pipeline.Full -> "full"
  | Pipeline.Dual_only -> "dual-only"
  | Pipeline.Modular_only -> "modular"

let variant_of_name = function
  | "full" -> Some Pipeline.Full
  | "dual-only" -> Some Pipeline.Dual_only
  | "modular" -> Some Pipeline.Modular_only
  | _ -> None

let effort_name = function
  | Placer.Quick -> "quick"
  | Placer.Normal -> "normal"
  | Placer.Full -> "full"

let opt_int = function None -> Json.Null | Some v -> Json.Int v
let opt_float = function None -> Json.Null | Some v -> Json.Float v

let knobs_fields k =
  [
    ("variant", Json.String (variant_name k.variant));
    ("effort", Json.String (effort_name k.effort));
    ("seed", Json.Int k.seed);
    ("restarts", Json.Int k.restarts);
    ("jobs", opt_int k.jobs);
    ("early_stop", opt_float k.early_stop);
    ("partition", opt_int k.partition);
    ("corridor", opt_int k.corridor);
    ("debug", Json.Bool k.debug);
    ("verify", Json.Bool k.verify);
  ]

let request_to_json = function
  | Compress { input; knobs } ->
      let input_fields =
        match input with
        | Qct { name; text } ->
            [ ("qct", Json.String text); ("name", Json.String name) ]
        | Named { name; scale } ->
            [ ("benchmark", Json.String name); ("scale", Json.Int scale) ]
      in
      Json.Obj
        (("op", Json.String "compress")
        :: (input_fields @ knobs_fields knobs))
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]

let encode_request r = Json.to_string (request_to_json r)

(* Decoding is defensive end to end: a daemon parses bytes from
   arbitrary clients, so every branch returns [Error] rather than
   raising. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let req_field j key conv what =
  match Option.bind (Json.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S field" what)

let opt_field j key conv what =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "malformed %S field" what))

let default_field j key conv ~default what =
  let* v = opt_field j key conv what in
  Ok (Option.value ~default v)

let knobs_of_json j =
  let d = default_knobs in
  let* variant =
    default_field j "variant"
      (fun v -> Option.bind (Json.to_str v) variant_of_name)
      ~default:d.variant "variant"
  in
  let* effort =
    default_field j "effort"
      (fun v -> Option.bind (Json.to_str v) Placer.effort_of_string)
      ~default:d.effort "effort"
  in
  let* seed = default_field j "seed" Json.to_int ~default:d.seed "seed" in
  let* restarts =
    default_field j "restarts" Json.to_int ~default:d.restarts "restarts"
  in
  let* jobs = opt_field j "jobs" Json.to_int "jobs" in
  (* [early_stop] distinguishes absent (CLI default margin) from an
     explicit null (margin disabled), so it cannot go through
     [opt_field]. *)
  let* early_stop =
    match Json.member "early_stop" j with
    | None -> Ok d.early_stop
    | Some Json.Null -> Ok None
    | Some v -> (
        match Json.to_float v with
        | Some f -> Ok (Some f)
        | None -> Error "malformed \"early_stop\" field")
  in
  let* partition = opt_field j "partition" Json.to_int "partition" in
  let* corridor = opt_field j "corridor" Json.to_int "corridor" in
  let* debug = default_field j "debug" Json.to_bool ~default:false "debug" in
  let* verify = default_field j "verify" Json.to_bool ~default:false "verify" in
  let positive = function Some v -> v >= 1 | None -> true in
  if restarts < 1 then Error "restarts must be >= 1"
  else if seed < 0 then Error "seed must be non-negative"
  (* the CLI's --partition and --corridor accept only positive caps *)
  else if not (positive partition) then Error "partition must be >= 1"
  else if not (positive corridor) then Error "corridor must be >= 1"
  else
    Ok
      { variant; effort; seed; restarts; jobs; early_stop; partition;
        corridor; debug; verify }

let input_of_json j =
  match (Json.member "qct" j, Json.member "benchmark" j) with
  | Some _, Some _ -> Error "request carries both \"qct\" and \"benchmark\""
  | Some q, None -> (
      match Json.to_str q with
      | None -> Error "malformed \"qct\" field"
      | Some text ->
          let* name =
            default_field j "name" Json.to_str ~default:"request" "name"
          in
          Ok (Qct { name; text }))
  | None, Some b -> (
      match Json.to_str b with
      | None -> Error "malformed \"benchmark\" field"
      | Some name ->
          let* scale = default_field j "scale" Json.to_int ~default:1 "scale" in
          if scale < 1 then Error "scale must be >= 1"
          else Ok (Named { name; scale }))
  | None, None -> Error "request carries neither \"qct\" nor \"benchmark\""

let request_of_json j =
  match Option.bind (Json.member "op" j) Json.to_str with
  | Some "compress" ->
      let* input = input_of_json j in
      let* knobs = knobs_of_json j in
      Ok (Compress { input; knobs })
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
  | None -> Error "missing \"op\" field"

let decode_request s =
  match Json.of_string s with
  | j -> request_of_json j
  | exception Json.Parse_error m -> Error ("malformed JSON: " ^ m)

let response_to_json = function
  | Progress { stage; seconds } ->
      Json.Obj
        [
          ("type", Json.String "progress");
          ("stage", Json.String stage);
          ("seconds", Json.Float seconds);
        ]
  | Result { payload; cached; timings } ->
      Json.Obj
        [
          ("type", Json.String "result");
          ("payload", Json.String payload);
          ("cached", Json.Bool cached);
          ("timings",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) timings));
        ]
  | Busy { in_flight; capacity } ->
      Json.Obj
        [
          ("type", Json.String "busy");
          ("in_flight", Json.Int in_flight);
          ("capacity", Json.Int capacity);
        ]
  | Failed { message } ->
      Json.Obj
        [ ("type", Json.String "error"); ("message", Json.String message) ]
  | Stats_reply s ->
      Json.Obj
        [
          ("type", Json.String "stats");
          ("hits", Json.Int s.sv_hits);
          ("misses", Json.Int s.sv_misses);
          ("entries", Json.Int s.sv_entries);
          ("bytes", Json.Int s.sv_bytes);
          ("served", Json.Int s.sv_served);
          ("busy", Json.Int s.sv_busy);
          ("errors", Json.Int s.sv_errors);
          ("in_flight", Json.Int s.sv_in_flight);
          ("capacity", Json.Int s.sv_capacity);
        ]
  | Bye -> Json.Obj [ ("type", Json.String "bye") ]

let encode_response r = Json.to_string (response_to_json r)

let response_of_json j =
  match Option.bind (Json.member "op" j) Json.to_str with
  | Some _ -> Error "a request, not a response"
  | None -> (
      match Option.bind (Json.member "type" j) Json.to_str with
      | Some "progress" ->
          let* stage = req_field j "stage" Json.to_str "stage" in
          let* seconds = req_field j "seconds" Json.to_float "seconds" in
          Ok (Progress { stage; seconds })
      | Some "result" ->
          let* payload = req_field j "payload" Json.to_str "payload" in
          let* cached = req_field j "cached" Json.to_bool "cached" in
          let* timings =
            match Json.member "timings" j with
            | Some (Json.Obj fields) ->
                let rec conv acc = function
                  | [] -> Ok (List.rev acc)
                  | (k, v) :: rest -> (
                      match Json.to_float v with
                      | Some f -> conv ((k, f) :: acc) rest
                      | None -> Error "malformed \"timings\" entry")
                in
                conv [] fields
            | None | Some Json.Null -> Ok []
            | Some _ -> Error "malformed \"timings\" field"
          in
          Ok (Result { payload; cached; timings })
      | Some "busy" ->
          let* in_flight = req_field j "in_flight" Json.to_int "in_flight" in
          let* capacity = req_field j "capacity" Json.to_int "capacity" in
          Ok (Busy { in_flight; capacity })
      | Some "error" ->
          let* message = req_field j "message" Json.to_str "message" in
          Ok (Failed { message })
      | Some "stats" ->
          let i k = req_field j k Json.to_int k in
          let* sv_hits = i "hits" in
          let* sv_misses = i "misses" in
          let* sv_entries = i "entries" in
          let* sv_bytes = i "bytes" in
          let* sv_served = i "served" in
          let* sv_busy = i "busy" in
          let* sv_errors = i "errors" in
          let* sv_in_flight = i "in_flight" in
          let* sv_capacity = i "capacity" in
          Ok
            (Stats_reply
               { sv_hits; sv_misses; sv_entries; sv_bytes; sv_served;
                 sv_busy; sv_errors; sv_in_flight; sv_capacity })
      | Some "bye" -> Ok Bye
      | Some t -> Error (Printf.sprintf "unknown response type %S" t)
      | None -> Error "missing \"type\" field")

let decode_response s =
  match Json.of_string s with
  | j -> response_of_json j
  | exception Json.Parse_error m -> Error ("malformed JSON: " ^ m)
