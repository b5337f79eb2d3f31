(* The one per-domain observability context: the state every stream
   writes to, behind a single [Domain.DLS] key.  [Metrics], [Prof],
   [Recorder] and [Span] each read their field of [get ()]; [Obs.capture]
   swaps in a fresh context for a parallel task and [Obs.merge] folds it
   back.  The stream types live here, above the modules that use them,
   so that the context can name all four. *)

(* --- Metrics ---------------------------------------------------------- *)

(* An instrument name's slot, one per name for the whole process: every
   handle of that name holds it, and a registry keys that name's cell
   by it. *)
type slot = { id : int; name : string }

(* A gauge's value sits alone in an all-float record, so storing it
   boxes nothing. *)
type gcell = { mutable g : float }

type hcell = {
  limits : float array;
  buckets : int array;  (** length = Array.length limits + 1 (overflow) *)
  mutable hstats : Stats.t;
}

type cell =
  | Absent
  | Counter of { slot : slot; mutable c : int }
  | Gauge of { slot : slot; gv : gcell }
  | Histogram of { slot : slot; h : hcell }

(* An open-addressed table of cells keyed by slot, probed linearly from
   [id land (length - 1)].  The length is a power of two at least twice
   [count], so a probe ends at an [Absent] entry; slot ids are dense
   from 0, so a registry holding most of them (the main one) finds
   every cell at its first probe.  A new registry shares [no_cells] and
   allocates a table of its own at its first cell. *)
type registry = { mutable cells : cell array; mutable count : int }

let no_cells = [| Absent |]

let registry () = { cells = no_cells; count = 0 }

(* --- Prof -------------------------------------------------------------- *)

(* The same section name under two different parents is two nodes, so
   total/self accounting stays a strict tree. *)
type node = {
  name : string;
  mutable count : int;
  mutable total_s : float;
  mutable total_bytes : float;
  children : (string, node) Hashtbl.t;
  (* first-entered order, reversed; hashtable iteration order is
     insertion-dependent but not specified, and reports must be
     deterministic for a deterministic run. *)
  mutable order : string list;
}

let node name =
  { name; count = 0; total_s = 0.0; total_bytes = 0.0; children = Hashtbl.create 8; order = [] }

let child_of parent name =
  match Hashtbl.find_opt parent.children name with
  | Some n -> n
  | None ->
      let n = node name in
      Hashtbl.add parent.children name n;
      parent.order <- name :: parent.order;
      n

(* --- Recorder ---------------------------------------------------------- *)

type record = {
  seq : int;  (** 0-based position in the (merged) stream *)
  r_time : float;
  r_label : string;
  r_subject : string;
  r_detail : string option;
  r_trace_id : string option;
  r_span : int option;
  r_parent : int option;
}

(* A rolling fingerprint: hash and record count. *)
type fp = { mutable fp_hash : int64; mutable fp_count : int }

let fnv_offset = 0xcbf29ce484222325L

let fp () = { fp_hash = fnv_offset; fp_count = 0 }

type recorder = {
  mutable rcount : int;  (* records accepted = next seq *)
  ring : record option array;  (* empty when keeping every record *)
  mutable ring_next : int;
  mutable kept : record list;  (* newest first, when keeping every record *)
  mutable oc : out_channel option;
  overall : fp;
  prefixes : (string, fp) Hashtbl.t;
  prefix_memo : (string, string) Hashtbl.t;
}

(* [ring = 0] keeps every record. *)
let recorder ~ring =
  {
    rcount = 0;
    ring = Array.make ring None;
    ring_next = 0;
    kept = [];
    oc = None;
    overall = fp ();
    prefixes = Hashtbl.create 8;
    prefix_memo = Hashtbl.create 64;
  }

(* The buffer every capture made while the recorder is off shares.  It
   is never written: [Recorder.enable] replaces it in the context
   instead of resetting and reusing it. *)
let idle_recorder = recorder ~ring:0

(* --- Span -------------------------------------------------------------- *)

(* Span ids are allocated per trace id from a minter: a plain counter
   table, made at a context's first mint. *)
type minter = (string, int) Hashtbl.t

(* --- The context ------------------------------------------------------- *)

type t = {
  mutable metrics : registry;
  mutable prof_root : node;
  mutable prof_cur : node;  (** the innermost open span *)
  mutable recorder : recorder;
  mutable minter : minter option;
}

let fresh ~ring =
  let root = node "" in
  { metrics = registry (); prof_root = root; prof_cur = root; recorder = recorder ~ring; minter = None }

(* A context belongs to the domain it is current on, and only that
   domain writes to it, so no stream needs a lock.  The main domain
   starts on [main] (a 256-record ring); a spawned domain starts on a
   private scratch context until [Obs.capture] swaps in a task's.

   The main domain's current context is kept twice: under the DLS key,
   and in [on_main].  While no [Par] batch runs, only the main domain
   runs, so [get] reads [on_main] and no DLS; during a batch every
   domain, the main one included, reads its DLS key. *)
let main = fresh ~ring:256

let key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> fresh ~ring:0)

let () = Domain.DLS.set key main

let on_main = ref main

let get () = if Par.workers_running () then Domain.DLS.get key else !on_main

let set c =
  Domain.DLS.set key c;
  if Domain.is_main_domain () then on_main := c
