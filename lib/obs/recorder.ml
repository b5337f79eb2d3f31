(* Flight recorder: the run's one event log, cheap enough to leave on
   in CI.  One record per fired engine event, per net-level
   delivery/drop, and per protocol narrative line (claims, G-RIB
   updates, join hops, violations — the records that carry a detail),
   each carrying the deterministic span ids from Span so any record is
   causally attributable.  The recorder keeps a bounded ring of recent
   records (or every record), optionally streams everything to a JSONL
   sink, and folds every record into rolling 64-bit fingerprints —
   overall and per label prefix — so two runs can be compared for
   identical behaviour without retaining either stream.  The instance
   records land in is the domain's [Obs_ctx] context's. *)

open Obs_ctx

type record = Obs_ctx.record = {
  seq : int;
  r_time : float;
  r_label : string;
  r_subject : string;
  r_detail : string option;
  r_trace_id : string option;
  r_span : int option;
  r_parent : int option;
}

(* --- fingerprint hashing --------------------------------------------- *)

(* FNV-1a over the record's semantic fields (time, label, subject,
   causality, detail) — NOT the seq, which merge renumbers.  A record
   without a detail hashes exactly as it did before details existed.
   Records are folded into the stream hash with a multiply-accumulate
   so both content and order matter. *)

let fnv_prime = 0x100000001b3L

(* Weyl-sequence constant (2^64 / phi): the stream-fold multiplier. *)
let stream_prime = 0x9E3779B97F4A7C15L

let h_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let h_string h s =
  let h = ref h in
  String.iter (fun c -> h := h_byte !h (Char.code c)) s;
  (* terminator so ("ab","c") and ("a","bc") hash differently *)
  h_byte !h 0xff

let h_int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h := h_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !h

let record_hash r =
  let h = h_int64 fnv_offset (Int64.bits_of_float r.r_time) in
  let h = h_string h r.r_label in
  let h = h_string h r.r_subject in
  let h = h_string h (match r.r_trace_id with Some id -> id | None -> "") in
  let h = h_int64 h (Int64.of_int (match r.r_span with Some s -> s | None -> -1)) in
  let h = h_int64 h (Int64.of_int (match r.r_parent with Some p -> p | None -> -1)) in
  match r.r_detail with Some d -> h_string (h_byte h 1) d | None -> h

let fp_add fp rhash =
  fp.fp_hash <- Int64.add (Int64.mul fp.fp_hash stream_prime) rhash;
  fp.fp_count <- fp.fp_count + 1

(* --- instances -------------------------------------------------------- *)

type retention = Ring of int | Keep_all

let create retain =
  match retain with
  | Ring n ->
      if n <= 0 then invalid_arg "Recorder: ring capacity must be positive";
      Obs_ctx.recorder ~ring:n
  | Keep_all -> Obs_ctx.recorder ~ring:0

let keeps_all t = Array.length t.ring = 0

let retention t = if keeps_all t then Keep_all else Ring (Array.length t.ring)

(* The enabled flag is shared across domains (flipped from the main
   domain while no workers run, like Prof). *)
let on = ref false
let is_enabled () = !on

let current () = (Obs_ctx.get ()).recorder

let prefix_of t label =
  match Hashtbl.find_opt t.prefix_memo label with
  | Some p -> p
  | None ->
      let p = match String.index_opt label '.' with
        | Some i -> String.sub label 0 i
        | None -> label
      in
      Hashtbl.add t.prefix_memo label p;
      p

let bucket t label =
  let p = prefix_of t label in
  match Hashtbl.find_opt t.prefixes p with
  | Some fp -> fp
  | None ->
      let fp = Obs_ctx.fp () in
      Hashtbl.add t.prefixes p fp;
      fp

(* --- JSONL encoding --------------------------------------------------- *)

let record_to_json r =
  let b = Buffer.create 96 in
  let esc = Jsonl.json_escape in
  Printf.bprintf b "{\"seq\": %d, \"time\": %.17g, \"label\": \"%s\", \"subject\": \"%s\"" r.seq
    r.r_time (esc r.r_label) (esc r.r_subject);
  (match r.r_detail with Some d -> Printf.bprintf b ", \"detail\": \"%s\"" (esc d) | None -> ());
  (match r.r_trace_id with
  | Some id -> Printf.bprintf b ", \"trace_id\": \"%s\"" (esc id)
  | None -> ());
  (match r.r_span with Some s -> Printf.bprintf b ", \"span\": %d" s | None -> ());
  (match r.r_parent with Some p -> Printf.bprintf b ", \"parent\": %d" p | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let record_of_value v =
  let open Jsonl in
  let ( let* ) = Option.bind in
  let* seq = field "seq" to_int v in
  let* r_time = field "time" to_float v in
  let* r_label = field "label" to_string v in
  let* r_subject = field "subject" to_string v in
  let* r_detail = Jsonl.opt_field "detail" to_string v in
  let* r_trace_id = Jsonl.opt_field "trace_id" to_string v in
  let* r_span = Jsonl.opt_field "span" to_int v in
  let* r_parent = Jsonl.opt_field "parent" to_int v in
  Some { seq; r_time; r_label; r_subject; r_detail; r_trace_id; r_span; r_parent }

let load_jsonl path = Jsonl.load_counted path record_of_value

(* --- recording -------------------------------------------------------- *)

(* [add] assigns the instance's next seq, so replaying a task's records
   renumbers them and a merged stream is indistinguishable from a
   sequential one. *)
let add t ~time ~label ~subject ~detail ~trace_id ~span ~parent =
  let r =
    { seq = t.rcount; r_time = time; r_label = label; r_subject = subject; r_detail = detail;
      r_trace_id = trace_id; r_span = span; r_parent = parent }
  in
  t.rcount <- t.rcount + 1;
  fp_add t.overall (record_hash r);
  fp_add (bucket t label) (record_hash r);
  if keeps_all t then t.kept <- r :: t.kept
  else begin
    t.ring.(t.ring_next) <- Some r;
    t.ring_next <- (t.ring_next + 1) mod Array.length t.ring
  end;
  match t.oc with
  | Some oc ->
      output_string oc (record_to_json r);
      output_char oc '\n'
  | None -> ()

let record ~time ~label ?(subject = "") ?span ?trace_id ?detail () =
  if !on then begin
    let trace_id, sp, parent =
      match span with
      | Some s -> (Some s.Span.trace_id, Some s.Span.span, s.Span.parent)
      | None -> (trace_id, None, None)
    in
    add (current ()) ~time ~label ~subject ~detail ~trace_id ~span:sp ~parent
  end

let recordf ~time ~label ~subject ?span ?trace_id fmt =
  if !on then
    Format.kasprintf (fun detail -> record ~time ~label ~subject ?span ?trace_id ~detail ()) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

(* --- lifecycle --------------------------------------------------------- *)

let reset_instance t ?sink () =
  t.rcount <- 0;
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.ring_next <- 0;
  t.kept <- [];
  (match t.oc with Some oc -> close_out oc | None -> ());
  t.oc <- (match sink with Some path -> Some (open_out path) | None -> None);
  t.overall.fp_hash <- fnv_offset;
  t.overall.fp_count <- 0;
  Hashtbl.reset t.prefixes

let enable ?(retain = Ring 256) ?sink () =
  (* A different retention needs a fresh instance, and so does the idle
     buffer that captures share while recording is off; the common path
     reuses the domain's existing one so repeated enable/disable is
     cheap. *)
  let cur = current () in
  if cur == Obs_ctx.idle_recorder || retain <> retention cur then
    (Obs_ctx.get ()).recorder <- create retain;
  reset_instance (current ()) ?sink ();
  on := true

let disable () =
  on := false;
  let t = current () in
  match t.oc with
  | Some oc ->
      t.oc <- None;
      close_out oc
  | None -> ()

let recent () =
  let t = current () in
  if keeps_all t then List.rev t.kept
  else begin
    let cap = Array.length t.ring in
    let acc = ref [] in
    for i = cap - 1 downto 0 do
      match t.ring.((t.ring_next + i) mod cap) with Some r -> acc := r :: !acc | None -> ()
    done;
    !acc
  end

(* --- fingerprints ------------------------------------------------------ *)

type fingerprint = {
  fpr_records : int;
  fpr_hash : int64;
  fpr_prefixes : (string * int * int64) list;  (** (prefix, records, hash), sorted by prefix *)
}

let fingerprint () =
  let t = current () in
  let prefixes =
    Hashtbl.fold (fun p fp acc -> (p, fp.fp_count, fp.fp_hash) :: acc) t.prefixes []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  { fpr_records = t.overall.fp_count; fpr_hash = t.overall.fp_hash; fpr_prefixes = prefixes }

let pp_fingerprint ppf f =
  Format.fprintf ppf "fingerprint %016Lx over %d records@." f.fpr_hash f.fpr_records;
  List.iter
    (fun (p, count, hash) -> Format.fprintf ppf "  %-8s %016Lx over %d records@." p hash count)
    f.fpr_prefixes
