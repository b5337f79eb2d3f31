type entry = {
  trial : int;
  seed : int;
  schedule : string;
  fingerprint : string;
  verdict : string;
  invariants : string list;
  trace_ids : string list;
  transient : int;
  converged_at : float option;
  deadline : float;
  min_schedule : string option;
  min_faults : int option;
  shrink_steps : int option;
  repro_recording : string option;
  repro_trace : string option;
}

let to_json e =
  let b = Buffer.create 256 in
  let esc = Jsonl.json_escape in
  let str_list l =
    "[" ^ String.concat ", " (List.map (fun s -> Printf.sprintf "\"%s\"" (esc s)) l) ^ "]"
  in
  let opt_str = function
    | Some s -> Printf.sprintf "\"%s\"" (esc s)
    | None -> "null"
  in
  let opt_int = function Some n -> string_of_int n | None -> "null" in
  let opt_float = function Some f -> Printf.sprintf "%.17g" f | None -> "null" in
  Printf.bprintf b
    "{\"trial\": %d, \"seed\": %d, \"schedule\": \"%s\", \"fingerprint\": \"%s\", \"verdict\": \
     \"%s\", \"invariants\": %s, \"trace_ids\": %s, \"transient\": %d, \"converged_at\": %s, \
     \"deadline\": %.17g, \"min_schedule\": %s, \"min_faults\": %s, \"shrink_steps\": %s, \
     \"repro_recording\": %s, \"repro_trace\": %s}"
    e.trial e.seed (esc e.schedule) (esc e.fingerprint) (esc e.verdict)
    (str_list e.invariants) (str_list e.trace_ids) e.transient (opt_float e.converged_at)
    e.deadline (opt_str e.min_schedule) (opt_int e.min_faults) (opt_int e.shrink_steps)
    (opt_str e.repro_recording) (opt_str e.repro_trace);
  Buffer.contents b

let of_value v =
  let open Jsonl in
  let ( let* ) = Option.bind in
  let* trial = field "trial" to_int v in
  let* seed = field "seed" to_int v in
  let* schedule = field "schedule" to_string v in
  let* fingerprint = field "fingerprint" to_string v in
  let* verdict = field "verdict" to_string v in
  let* invariants = field "invariants" (to_list to_string) v in
  let* trace_ids = field "trace_ids" (to_list to_string) v in
  (* One blamed trace id per violated invariant, or the line is not a
     ledger record. *)
  let* () = if List.compare_lengths invariants trace_ids = 0 then Some () else None in
  let* transient = field "transient" to_int v in
  let* converged_at = Jsonl.opt_field "converged_at" to_float v in
  let* deadline = field "deadline" to_float v in
  let* min_schedule = Jsonl.opt_field "min_schedule" to_string v in
  let* min_faults = Jsonl.opt_field "min_faults" to_int v in
  let* shrink_steps = Jsonl.opt_field "shrink_steps" to_int v in
  let* repro_recording = Jsonl.opt_field "repro_recording" to_string v in
  let* repro_trace = Jsonl.opt_field "repro_trace" to_string v in
  Some
    {
      trial;
      seed;
      schedule;
      fingerprint;
      verdict;
      invariants;
      trace_ids;
      transient;
      converged_at;
      deadline;
      min_schedule;
      min_faults;
      shrink_steps;
      repro_recording;
      repro_trace;
    }

let append oc e =
  output_string oc (to_json e);
  output_char oc '\n'

let load file = Jsonl.load_counted file of_value
