(* The serving layer under Alcotest: JSON codec round-trips, frame
   framing over a real pipe, cache-key correctness (gate order and every
   result-affecting knob separate keys; jobs/debug/verify do not), the
   LRU cache's accounting, the request/response codec, a QCheck sweep
   of random fuzz cases through the codec, and an in-process end-to-end
   daemon exchange over a temp socket. *)

open Tqec_serve

let check = Alcotest.check

(* --- json ---------------------------------------------------------- *)

let roundtrip v =
  let s = Json.to_string v in
  check Alcotest.string "json round-trip" s (Json.to_string (Json.of_string s))

let test_json_roundtrip () =
  roundtrip Json.Null;
  roundtrip (Json.Bool true);
  roundtrip (Json.Int (-42));
  roundtrip (Json.Float 0.05);
  roundtrip (Json.Float 3.0);
  roundtrip (Json.String "plain");
  roundtrip (Json.String "esc \"quotes\" \\ \n \t \r \b \012 \001 end");
  roundtrip (Json.List [ Json.Int 1; Json.Null; Json.String "x" ]);
  roundtrip
    (Json.Obj
       [
         ("a", Json.List []);
         ("nested", Json.Obj [ ("b", Json.Bool false) ]);
         ("", Json.Int 0);
       ]);
  (* structural equality too, not just print equality *)
  let v =
    Json.Obj
      [ ("k", Json.List [ Json.Float 1.5; Json.Int 2; Json.String "\n" ]) ]
  in
  assert (Json.of_string (Json.to_string v) = v)

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | _ -> Alcotest.failf "accepted malformed %S" s
    | exception Json.Parse_error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "nul";
  bad "1 2";
  bad "\"unterminated";
  bad "{\"a\":1} trailing"

let test_json_accessors () =
  let j = Json.of_string "{\"i\":7,\"f\":2.5,\"s\":\"x\",\"b\":true}" in
  check Alcotest.(option int) "int" (Some 7)
    (Option.bind (Json.member "i" j) Json.to_int);
  check
    Alcotest.(option (float 0.0))
    "float" (Some 2.5)
    (Option.bind (Json.member "f" j) Json.to_float);
  (* ints coerce to float, not the reverse *)
  check
    Alcotest.(option (float 0.0))
    "int as float" (Some 7.0)
    (Option.bind (Json.member "i" j) Json.to_float);
  check Alcotest.(option int) "float is not int" None
    (Option.bind (Json.member "f" j) Json.to_int);
  check Alcotest.(option string) "missing" None
    (Option.bind (Json.member "zz" j) Json.to_str)

(* --- framing ------------------------------------------------------- *)

let test_framing_pipe () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      Protocol.write_frame w "hello";
      Protocol.write_frame w "";
      (* stays under the 64 KiB pipe buffer: no reader runs while we
         write, so the frames must fit without blocking *)
      Protocol.write_frame w (String.make 40000 'x');
      check Alcotest.string "frame 1" "hello" (Protocol.read_frame r);
      check Alcotest.string "empty frame" "" (Protocol.read_frame r);
      check Alcotest.int "large frame" 40000
        (String.length (Protocol.read_frame r)))

let test_framing_limits () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      (match Protocol.write_frame w (String.make (Protocol.max_frame + 1) 'x') with
      | () -> Alcotest.fail "oversized write accepted"
      | exception Protocol.Framing_error _ -> ());
      (* a hostile length prefix is rejected before any allocation *)
      let hdr = Bytes.of_string "\xff\xff\xff\xff" in
      assert (Unix.write w hdr 0 4 = 4);
      match Protocol.read_frame r with
      | _ -> Alcotest.fail "oversized read accepted"
      | exception Protocol.Framing_error _ -> ())

(* --- request/response codec ---------------------------------------- *)

let req_roundtrip r =
  match Protocol.decode_request (Protocol.encode_request r) with
  | Ok r' -> assert (r' = r)
  | Error m -> Alcotest.failf "request did not round-trip: %s" m

let resp_roundtrip r =
  match Protocol.decode_response (Protocol.encode_response r) with
  | Ok r' -> assert (r' = r)
  | Error m -> Alcotest.failf "response did not round-trip: %s" m

let test_codec_requests () =
  req_roundtrip Protocol.Stats;
  req_roundtrip Protocol.Shutdown;
  req_roundtrip
    (Protocol.Compress
       {
         input = Protocol.Named { name = "rd84_142"; scale = 96 };
         knobs = Protocol.default_knobs;
       });
  req_roundtrip
    (Protocol.Compress
       {
         input = Protocol.Qct { name = "fix"; text = "qubits 2\ncnot 0 1\n" };
         knobs =
           {
             Protocol.variant = Tqec_compress.Pipeline.Dual_only;
             effort = Tqec_place.Placer.Full;
             seed = 9;
             restarts = 4;
             jobs = Some 2;
             early_stop = None;
             partition = Some 3;
             corridor = Some 4096;
             debug = true;
             verify = true;
           };
       })

let test_codec_responses () =
  resp_roundtrip (Protocol.Progress { stage = "routing"; seconds = 0.25 });
  resp_roundtrip
    (Protocol.Result
       {
         payload = "x: volume=1 routed=true";
         cached = true;
         timings = [ ("bridging", 0.5); ("placement", 1.25) ];
       });
  resp_roundtrip (Protocol.Busy { in_flight = 1; capacity = 1 });
  resp_roundtrip (Protocol.Failed { message = "verify: 3 violation(s)" });
  resp_roundtrip
    (Protocol.Stats_reply
       {
         Protocol.sv_hits = 1; sv_misses = 2; sv_entries = 3; sv_bytes = 4;
         sv_served = 5; sv_busy = 6; sv_errors = 7; sv_in_flight = 0;
         sv_capacity = 2;
       });
  resp_roundtrip Protocol.Bye

let test_codec_rejects () =
  let bad s =
    match Protocol.decode_request s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "not json at all";
  bad "{}";
  bad "{\"op\":\"launch\"}";
  bad "{\"op\":\"compress\"}";
  (* an input, but two of them *)
  bad "{\"op\":\"compress\",\"qct\":\"qubits 1\\n\",\"benchmark\":\"rd84_142\"}";
  bad "{\"op\":\"compress\",\"benchmark\":\"rd84_142\",\"scale\":0}";
  bad "{\"op\":\"compress\",\"benchmark\":\"rd84_142\",\"restarts\":0}";
  (* like the CLI's --partition and --corridor, only positive caps *)
  bad "{\"op\":\"compress\",\"benchmark\":\"rd84_142\",\"partition\":0}";
  bad "{\"op\":\"compress\",\"benchmark\":\"rd84_142\",\"partition\":-3}";
  bad "{\"op\":\"compress\",\"benchmark\":\"rd84_142\",\"corridor\":0}";
  bad "{\"op\":\"compress\",\"benchmark\":\"rd84_142\",\"corridor\":-5}";
  (* defaults fill everything the request leaves out *)
  match Protocol.decode_request "{\"op\":\"compress\",\"benchmark\":\"x\"}" with
  | Ok (Protocol.Compress { knobs; _ }) ->
      assert (knobs = Protocol.default_knobs)
  | Ok _ -> Alcotest.fail "decoded to the wrong request"
  | Error m -> Alcotest.failf "minimal request rejected: %s" m

(* --- fingerprint --------------------------------------------------- *)

let icm_of text =
  Tqec_icm.Decompose.run (Tqec_circuit.Qct.parse_string ~name:"fp" text)

let fp ?(knobs = Protocol.default_knobs) text =
  Fingerprint.of_icm (icm_of text) ~knobs

let test_fingerprint_input () =
  let a = "qubits 3\ncnot 0 1\ncnot 1 2\n" in
  check Alcotest.string "identical circuits agree" (fp a) (fp a);
  (* same gate multiset, different order: CNOT(0,1) and CNOT(1,2) do
     not commute, so the keys must differ *)
  let b = "qubits 3\ncnot 1 2\ncnot 0 1\n" in
  assert (fp a <> fp b);
  (* different circuit entirely *)
  assert (fp a <> fp "qubits 3\ncnot 0 1\n");
  (* a T gadget registers in the fingerprint *)
  assert (fp "qubits 2\nt 0\n" <> fp "qubits 2\nt 1\n")

let test_fingerprint_knobs () =
  let text = "qubits 3\ncnot 0 1\nt 1\ncnot 1 2\n" in
  let base = Protocol.default_knobs in
  let key k = fp ~knobs:k text in
  let base_key = key base in
  (* every result-affecting knob separates the key *)
  assert (key { base with Protocol.seed = 7 } <> base_key);
  assert (key { base with Protocol.restarts = 3 } <> base_key);
  assert (key { base with Protocol.partition = Some 2 } <> base_key);
  assert (key { base with Protocol.corridor = Some 512 } <> base_key);
  assert (key { base with Protocol.early_stop = None } <> base_key);
  assert (
    key { base with Protocol.variant = Tqec_compress.Pipeline.Dual_only }
    <> base_key);
  assert (
    key { base with Protocol.effort = Tqec_place.Placer.Normal } <> base_key);
  (* jobs, debug and verify must NOT separate it: the result bytes are
     invariant in all three, and a daemon must hit its cache across
     clients that differ only there *)
  check Alcotest.string "jobs-invariant" base_key
    (key { base with Protocol.jobs = Some 1 });
  check Alcotest.string "jobs-invariant (8)" base_key
    (key { base with Protocol.jobs = Some 8 });
  check Alcotest.string "debug-invariant" base_key
    (key { base with Protocol.debug = true });
  check Alcotest.string "verify-invariant" base_key
    (key { base with Protocol.verify = true })

(* --- cache --------------------------------------------------------- *)

let test_cache_counters () =
  let c = Cache.create ~budget:1000 in
  check Alcotest.(option (pair string (list (pair string (float 0.0)))))
    "miss on empty" None (Cache.find c "k1");
  Cache.add c "k1" ~payload:"payload-one" ~timings:[ ("s", 1.0) ];
  check Alcotest.(option (pair string (list (pair string (float 0.0)))))
    "hit" (Some ("payload-one", [ ("s", 1.0) ]))
    (Cache.find c "k1");
  check Alcotest.int "hits" 1 (Cache.hits c);
  check Alcotest.int "misses" 1 (Cache.misses c);
  check Alcotest.int "entries" 1 (Cache.entries c);
  check Alcotest.int "bytes" (String.length "payload-one") (Cache.bytes c)

let test_cache_lru () =
  let c = Cache.create ~budget:30 in
  let p10 = String.make 10 'a' in
  Cache.add c "a" ~payload:p10 ~timings:[];
  Cache.add c "b" ~payload:p10 ~timings:[];
  Cache.add c "c" ~payload:p10 ~timings:[];
  (* full at 30 bytes; touching "a" makes "b" the LRU victim *)
  assert (Cache.find c "a" <> None);
  Cache.add c "d" ~payload:p10 ~timings:[];
  assert (Cache.find c "b" = None);
  assert (Cache.find c "a" <> None);
  assert (Cache.find c "c" <> None);
  assert (Cache.find c "d" <> None);
  check Alcotest.int "one eviction" 1 (Cache.evictions c);
  check Alcotest.int "bytes stay within budget" 30 (Cache.bytes c)

let test_cache_limits () =
  let c = Cache.create ~budget:10 in
  (* oversized payloads are served but never stored *)
  Cache.add c "big" ~payload:(String.make 11 'x') ~timings:[];
  check Alcotest.int "oversized not stored" 0 (Cache.entries c);
  check Alcotest.int "no bytes" 0 (Cache.bytes c);
  (* same-key replacement accounts bytes once *)
  Cache.add c "k" ~payload:"aaaa" ~timings:[];
  Cache.add c "k" ~payload:"bbbbbb" ~timings:[];
  check Alcotest.int "replacement entries" 1 (Cache.entries c);
  check Alcotest.int "replacement bytes" 6 (Cache.bytes c);
  (match Cache.find c "k" with
  | Some (p, _) -> check Alcotest.string "replacement payload" "bbbbbb" p
  | None -> Alcotest.fail "replaced key missing");
  (* budget 0 disables caching entirely *)
  let c0 = Cache.create ~budget:0 in
  Cache.add c0 "k" ~payload:"" ~timings:[];
  Cache.add c0 "k2" ~payload:"x" ~timings:[];
  check Alcotest.int "zero budget stores only empty payloads" 1
    (Cache.entries c0);
  check Alcotest.int "zero budget holds zero bytes" 0 (Cache.bytes c0)

(* --- codec property over random fuzz cases ------------------------- *)

let qcheck_tests =
  let rand () = Random.State.make [| 0x5EC7 |] in
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~rand:(rand ()) t)
    [
      QCheck2.Test.make ~count:100 ~name:"serve codec round-trips fuzz cases"
        ~print:Tqec_fuzz.Case.print Tqec_fuzz.Case.gen (fun case ->
          Tqec_fuzz.Oracle.check_codec case = []);
    ]

(* --- in-process end-to-end ----------------------------------------- *)

let test_server_e2e () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tqecc-test-%d.sock" (Unix.getpid ()))
  in
  let config =
    { Server.default_config with Server.socket_path = socket; capacity = 1 }
  in
  let daemon = Thread.create (fun () -> ignore (Server.run config)) () in
  (* wait for the listener to come up *)
  let rec await n =
    match Client.call ~socket Protocol.Stats with
    | _ -> ()
    | exception Client.Connect_error _ when n > 0 ->
        Thread.delay 0.02;
        await (n - 1)
  in
  await 250;
  let request =
    Protocol.Compress
      {
        input = Protocol.Qct { name = "e2e"; text = "qubits 2\ncnot 0 1\n" };
        knobs = Protocol.default_knobs;
      }
  in
  let payload_of = function
    | Protocol.Result { payload; cached; _ } -> (payload, cached)
    | other ->
        Alcotest.failf "unexpected response: %s"
          (Protocol.encode_response other)
  in
  let p1, c1 = payload_of (Client.call ~socket request) in
  let p2, c2 = payload_of (Client.call ~socket request) in
  check Alcotest.bool "first is computed" false c1;
  check Alcotest.bool "second is cached" true c2;
  check Alcotest.string "identical bytes" p1 p2;
  (* progress frames stream on the miss; the payload carries the name *)
  assert (String.length p1 > 0);
  check Alcotest.string "payload names the circuit" "e2e"
    (String.sub p1 0 3);
  (match Client.call ~socket Protocol.Stats with
  | Protocol.Stats_reply s ->
      check Alcotest.int "one hit" 1 s.Protocol.sv_hits;
      check Alcotest.int "one miss" 1 s.Protocol.sv_misses;
      check Alcotest.int "served both" 2 s.Protocol.sv_served
  | _ -> Alcotest.fail "stats request failed");
  (match Client.call ~socket Protocol.Shutdown with
  | Protocol.Bye -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  Thread.join daemon;
  check Alcotest.bool "socket removed" false (Sys.file_exists socket)

(* A cyclic constraint DAG reaching the daemon's compute path must come
   back as a structured Failed response naming the icm stage — not kill
   the daemon.  The [icm-cycle] fault seam runs the real pipeline on a
   crafted cyclic ICM, driving the acyclicity gate end to end. *)
let test_server_cycle_failure () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tqecc-test-cycle-%d.sock" (Unix.getpid ()))
  in
  let config =
    {
      Server.default_config with
      Server.socket_path = socket;
      capacity = 1;
      fault = Some "icm-cycle";
    }
  in
  let daemon = Thread.create (fun () -> ignore (Server.run config)) () in
  let rec await n =
    match Client.call ~socket Protocol.Stats with
    | _ -> ()
    | exception Client.Connect_error _ when n > 0 ->
        Thread.delay 0.02;
        await (n - 1)
  in
  await 250;
  let request =
    Protocol.Compress
      {
        input = Protocol.Qct { name = "cyc"; text = "qubits 2\ncnot 0 1\n" };
        knobs = Protocol.default_knobs;
      }
  in
  (match Client.call ~socket request with
  | Protocol.Failed { message } ->
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "failure names the icm stage" true
        (contains message "icm");
      check Alcotest.bool "failure says cyclic" true
        (contains message "cyclic")
  | other ->
      Alcotest.failf "expected structured failure, got: %s"
        (Protocol.encode_response other));
  (* the daemon survived the failure and still serves *)
  (match Client.call ~socket Protocol.Stats with
  | Protocol.Stats_reply s ->
      check Alcotest.int "error counted" 1 s.Protocol.sv_errors
  | _ -> Alcotest.fail "stats after failure");
  (match Client.call ~socket Protocol.Shutdown with
  | Protocol.Bye -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  Thread.join daemon

let suites =
  [
    ( "serve.json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "malformed input" `Quick test_json_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
      ] );
    ( "serve.protocol",
      [
        Alcotest.test_case "framing over a pipe" `Quick test_framing_pipe;
        Alcotest.test_case "frame limits" `Quick test_framing_limits;
        Alcotest.test_case "request codec" `Quick test_codec_requests;
        Alcotest.test_case "response codec" `Quick test_codec_responses;
        Alcotest.test_case "hostile requests" `Quick test_codec_rejects;
      ] );
    ( "serve.fingerprint",
      [
        Alcotest.test_case "gate order and content" `Quick
          test_fingerprint_input;
        Alcotest.test_case "knob separation" `Quick test_fingerprint_knobs;
      ] );
    ( "serve.cache",
      [
        Alcotest.test_case "hit/miss counters" `Quick test_cache_counters;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru;
        Alcotest.test_case "budget edge cases" `Quick test_cache_limits;
      ] );
    ("serve.codec-fuzz", qcheck_tests);
    ( "serve.e2e",
      [
        Alcotest.test_case "daemon round trip" `Quick test_server_e2e;
        Alcotest.test_case "cyclic ICM -> structured failure" `Quick
          test_server_cycle_failure;
      ] );
  ]
