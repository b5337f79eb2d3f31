(* The offline views ([Report]) over recordings written from in-memory
   records, and the shared JSONL reader every artifact loader uses. *)

let check = Alcotest.check

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let rec_ ?detail ?trace_id ?span seq time label =
  {
    Recorder.seq;
    r_time = time;
    r_label = label;
    r_subject = "s";
    r_detail = detail;
    r_trace_id = trace_id;
    r_span = span;
    r_parent = None;
  }

(* A short stream: a claim narrated on its chain, an engine record,
   then a net delivery on the same chain. *)
let stream =
  [
    rec_ 0 1.0 "claim" ~detail:"224.0.0.0/24 (new)" ~trace_id:"claim:1:224.0.0.0/24" ~span:0;
    rec_ 1 2.0 "masc.claim_wait";
    rec_ 2 3.0 "net.recv.masc" ~trace_id:"claim:1:224.0.0.0/24" ~span:0;
  ]

(* One recording line in the recorder's JSONL shape (the test records
   hold no character JSON would escape differently). *)
let jsonl_line (r : Recorder.record) =
  let opt key show = function Some v -> Printf.sprintf ", \"%s\": %s" key (show v) | None -> "" in
  Printf.sprintf "{\"seq\": %d, \"time\": %.17g, \"label\": %S, \"subject\": %S%s%s%s}"
    r.Recorder.seq r.Recorder.r_time r.Recorder.r_label r.Recorder.r_subject
    (opt "detail" (Printf.sprintf "%S") r.Recorder.r_detail)
    (opt "trace_id" (Printf.sprintf "%S") r.Recorder.r_trace_id)
    (opt "span" string_of_int r.Recorder.r_span)

(* [report --diff] over recordings A and B of the two streams: the exit
   code, the output, and the two file names it prints. *)
let diff a b =
  let dir = Filename.temp_dir "diff" "" in
  let write name records =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun r -> output_string oc (jsonl_line r ^ "\n")) records);
    path
  in
  let pa = write "A" a and pb = write "B" b in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let code = Report.run_diff_files ppf pa pb in
  Format.pp_print_flush ppf ();
  List.iter Sys.remove [ pa; pb ];
  Sys.rmdir dir;
  (code, Buffer.contents buf, pa, pb)

let test_diff_identical () =
  (* seq numbers are per stream: renumbered copies are still identical. *)
  let renumbered = List.map (fun r -> { r with Recorder.seq = r.Recorder.seq + 10 }) stream in
  let code, out, _, _ = diff stream renumbered in
  check Alcotest.int "exit 0" 0 code;
  check Alcotest.bool "reported identical" true (contains "recordings identical (3 records)" out)

let test_diff_strict_prefix () =
  let extra = rec_ 3 4.0 "net.drop.masc" ~detail:"loss" ~trace_id:"claim:1:224.0.0.0/24" in
  let code, out, _, b = diff stream (stream @ [ extra ]) in
  check Alcotest.int "exit 1" 1 code;
  check Alcotest.bool "names the longer stream" true
    (contains (b ^ " has 1 extra record(s), first:") out);
  check Alcotest.bool "prints the first extra record" true (contains "net.drop.masc" out);
  check Alcotest.bool "chain of the extra record" true
    (contains ("--- causal chain, " ^ b ^ " ---") out)

let test_diff_divergence_anchors_on_spanned_record () =
  (* The records diverge at the engine record (no trace id); the chain is
     anchored on the nearest spanned record, and renders its narrative. *)
  let b = List.mapi (fun i r -> if i = 1 then { r with Recorder.r_time = 2.5 } else r) stream in
  let code, out, a, _ = diff stream b in
  check Alcotest.int "exit 1" 1 code;
  check Alcotest.bool "locates the divergence" true (contains "first divergence at record 1" out);
  check Alcotest.bool "both sides shown" true (contains "  A > #1" out && contains "  B > #1" out);
  check Alcotest.bool "anchored on the nearest spanned record" true
    (contains ("--- causal chain, A = " ^ a ^ " (anchored on nearest spanned record, 0) ---") out);
  check Alcotest.bool "chain renders the protocol detail" true (contains "224.0.0.0/24 (new)" out);
  check Alcotest.bool "engine records stay out of the chain" false
    (contains "(2 entries)" out)

(* --- malformed input -------------------------------------------------- *)

let expect_unreadable what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Report.Unreadable")
  | exception Report.Unreadable msg -> msg

let test_unreadable_files () =
  let dir = Filename.get_temp_dir_name () in
  let msg = expect_unreadable "trace" (fun () -> Report.run_trace Format.str_formatter dir None) in
  check Alcotest.string "trace of a directory" ("trace " ^ dir ^ ": Is a directory") msg;
  ignore
    (expect_unreadable "profile" (fun () -> Report.report_profile Format.str_formatter dir None));
  ignore (expect_unreadable "matrix" (fun () -> Report.report_matrix Format.str_formatter dir));
  let missing = Filename.concat dir "no-such-recording.jsonl" in
  let msg =
    expect_unreadable "diff" (fun () -> Report.run_diff_files Format.str_formatter missing missing)
  in
  check Alcotest.string "missing file: reason without a repeated path"
    ("recording " ^ missing ^ ": No such file or directory")
    msg

let test_non_finite_time_is_malformed () =
  let file = Filename.temp_file "recording" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc
        "{\"seq\": 0, \"time\": 1e999999, \"label\": \"claim\", \"subject\": \"masc-0\", \
         \"detail\": \"x\"}\n\
         {\"seq\": 1.5, \"time\": 1.0, \"label\": \"ev\", \"subject\": \"\"}\n\
         {\"seq\": 1e30, \"time\": 1.0, \"label\": \"ev\", \"subject\": \"\"}\n\
         {\"seq\": 3, \"time\": 2.0, \"label\": \"ev\", \"subject\": \"\"}\n";
      close_out oc;
      let records, bad = Recorder.load_jsonl file in
      check Alcotest.int "only the sound line loads" 1 (List.length records);
      check Alcotest.int "infinite time and bad ints counted" 3 bad)

(* --- the shared reader ------------------------------------------------- *)

let test_jsonl_values () =
  let doc = "{\n  \"a\": [1, -2.5e3, null, null],\n  \"s\": \"q\\\"\\\\\\n\\u0001\",\n  \"o\": {}\n}\n" in
  match Jsonl.parse doc with
  | None -> Alcotest.fail "multi-line document did not parse"
  | Some v ->
      check (Alcotest.option (Alcotest.list (Alcotest.option (Alcotest.float 0.0))))
        "array of numbers and null"
        (Some [ Some 1.0; Some (-2500.0); None; None ])
        (Jsonl.field "a" (Jsonl.to_list (fun x -> Some (Jsonl.to_float x))) v);
      check (Alcotest.option Alcotest.string) "escapes decode" (Some "q\"\\\n\001")
        (Jsonl.field "s" Jsonl.to_string v);
      check Alcotest.bool "empty object" true (Jsonl.member "o" v = Some (Jsonl.Object []));
      check (Alcotest.option (Alcotest.option Alcotest.int)) "absent nullable field" (Some None)
        (Jsonl.opt_field "missing" Jsonl.to_int v)

let test_jsonl_rejects () =
  List.iter
    (fun s -> check Alcotest.bool (Printf.sprintf "%S rejected" s) true (Jsonl.parse s = None))
    [ "{\"a\": 1"; "{\"a\": 1} x"; "[1, 2,]"; "1e999999"; "-1e400"; "\"\\q\""; "nope" ];
  check (Alcotest.option Alcotest.int) "integral" (Some 42) (Jsonl.to_int (Jsonl.Number 42.0));
  check (Alcotest.option Alcotest.int) "fractional" None (Jsonl.to_int (Jsonl.Number 1.5));
  check (Alcotest.option Alcotest.int) "out of range" None (Jsonl.to_int (Jsonl.Number 1e30))

let test_jsonl_escape_roundtrip () =
  let s = "tab\there \"quoted\" back\\slash\nnew\rline \001" in
  check (Alcotest.option Alcotest.string) "escape then parse" (Some s)
    (Option.bind (Jsonl.parse ("\"" ^ Jsonl.json_escape s ^ "\"")) Jsonl.to_string)

(* --- every loader under fuzzing ----------------------------------------- *)

(* Each loader as (rows, malformed).  The matrix folds its meta lines
   into one list, so its row count takes the meta as one line: the
   artifacts below carry a single meta line of two fields, which no one
   flip or cut turns into two. *)
let loaders =
  let rows (xs, bad) = (List.length xs, bad) in
  [
    ("recording", fun f -> rows (Recorder.load_jsonl f));
    ("profile", fun f -> rows (Prof.load_jsonl_counted f));
    ("telemetry", fun f -> rows (Timeseries.load_jsonl_counted f));
    ("ledger", fun f -> rows (Ledger.load f));
    ( "matrix",
      fun f ->
        let meta, cells, bad = Beacon_matrix.load_jsonl_counted f in
        (List.length cells + (if meta = [] then 0 else 1), bad) );
  ]

let with_temp f =
  let file = Filename.temp_file "fuzz" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

(* One artifact of each kind, as a small run writes it. *)
let artifacts () =
  let read file = In_channel.with_open_bin file In_channel.input_all in
  let recording, profile =
    with_temp (fun rec_file ->
        with_temp (fun prof_file ->
            Prof.enable ();
            Recorder.enable ~sink:rec_file ();
            Fun.protect
              ~finally:(fun () ->
                Recorder.disable ();
                Prof.disable ())
              (fun () -> ignore (Scenario.figure3 ()));
            Prof.write_jsonl prof_file;
            Test_obs.prof_clear ();
            (read rec_file, read prof_file)))
  in
  let telemetry =
    with_temp (fun file ->
        let ts = Timeseries.create file in
        let n = ref 0 in
        Timeseries.register ts "fuzz.count" (fun () -> float_of_int !n);
        Timeseries.register ts "fuzz.ratio" (fun () -> 1.0 /. float_of_int (!n + 3));
        for i = 1 to 6 do
          n := i * i;
          Timeseries.sample ts ~time:(float_of_int i *. 0.5)
        done;
        Timeseries.close ts;
        read file)
  in
  let ledger =
    with_temp (fun ledger ->
        ignore
          (Explore.run_campaign
             { Explore.default_config with Explore.budget = 3; seed = 7; jobs = Some 1; ledger });
        read ledger)
  in
  let matrix =
    with_temp (fun file ->
        let r =
          Beacon_campaign.run ~jobs:1
            { Beacon_campaign.default_params with domains = 8; per_domain = 1; probes = 2 }
        in
        Beacon_matrix.write_jsonl ~meta:[ ("trials", 1.0); ("loss", 0.0) ] file
          r.Beacon_campaign.cells;
        read file)
  in
  [
    ("recording", recording);
    ("profile", profile);
    ("telemetry", telemetry);
    ("ledger", ledger);
    ("matrix", matrix);
  ]

(* Random bytes, newline-free or with short or long lines. *)
let random_bytes rng =
  let nl_every = [| 0; 16; 512 |].(Rng.int rng 3) in
  String.init (Rng.int rng 9000) (fun _ ->
      if nl_every > 0 && Rng.int rng nl_every = 0 then '\n' else Char.chr (Rng.int rng 256))

(* Cuts (the final newline dropped, and random prefixes) and
   single-byte flips of an artifact. *)
let mutants rng text =
  let n = String.length text in
  let cut k = String.sub text 0 k in
  let flip () =
    let b = Bytes.of_string text and i = Rng.int rng n in
    Bytes.set b i (Char.chr ((Char.code text.[i] + 1 + Rng.int rng 255) land 255));
    Bytes.to_string b
  in
  (cut (n - 1) :: List.init 12 (fun _ -> cut (Rng.int rng (n + 1))))
  @ List.init 24 (fun _ -> flip ())

let non_blank_lines text =
  let lines = String.split_on_char '\n' text in
  List.length (List.filter (fun l -> String.trim l <> "") lines)

(* The last line is cut when the file does not end in a newline and
   that line is neither blank nor a JSON document. *)
let cut_reference text =
  let n = String.length text in
  n > 0
  && text.[n - 1] <> '\n'
  &&
  let last =
    match String.rindex_opt text '\n' with
    | Some i -> String.sub text (i + 1) (n - i - 1)
    | None -> text
  in
  String.trim last <> "" && Jsonl.parse last = None

let test_loaders_fuzz () =
  let rng = Rng.create 42 in
  let inputs =
    List.init 20 (fun i -> (Printf.sprintf "random bytes #%d" i, random_bytes rng))
    @ List.concat_map
        (fun (kind, text) ->
          (kind ^ " intact", text)
          :: List.mapi (fun i m -> (Printf.sprintf "%s mutant #%d" kind i, m)) (mutants rng text))
        (fst (Obs.capture artifacts))
  in
  with_temp (fun file ->
      List.iter
        (fun (what, text) ->
          Out_channel.with_open_bin file (fun oc -> output_string oc text);
          let lines = non_blank_lines text in
          List.iter
            (fun (loader, load) ->
              match load file with
              | rows, bad ->
                  if rows + bad <> lines then
                    Alcotest.failf "%s loader on %s: %d rows + %d malformed for %d lines" loader
                      what rows bad lines
              | exception Sys_error _ -> ()
              | exception e ->
                  Alcotest.failf "%s loader on %s: raised %s" loader what (Printexc.to_string e))
            loaders;
          check Alcotest.bool (what ^ ": last_line_cut") (cut_reference text)
            (Jsonl.last_line_cut file))
        inputs)

let suite =
  [
    ("diff identical streams", `Quick, test_diff_identical);
    ("diff strict prefix", `Quick, test_diff_strict_prefix);
    ( "diff divergence anchors on spanned record",
      `Quick,
      test_diff_divergence_anchors_on_spanned_record );
    ("unreadable files raise Unreadable", `Quick, test_unreadable_files);
    ("non-finite numbers are malformed lines", `Quick, test_non_finite_time_is_malformed);
    ("jsonl values", `Quick, test_jsonl_values);
    ("jsonl rejects", `Quick, test_jsonl_rejects);
    ("jsonl escape roundtrip", `Quick, test_jsonl_escape_roundtrip);
    ("jsonl loaders survive fuzzing", `Quick, test_loaders_fuzz);
  ]
