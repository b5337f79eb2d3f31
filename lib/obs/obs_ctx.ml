(* The one per-domain observability context: the state every stream
   writes to, behind a single [Domain.DLS] key.  [Metrics], [Prof],
   [Recorder] and [Span] each read their field of [get ()]; [Obs.capture]
   swaps in a fresh context for a parallel task and [Obs.merge] folds it
   back.  The stream types live here, above the modules that use them,
   so that the context can name all four. *)

(* --- Metrics ---------------------------------------------------------- *)

type ccell = { mutable c : int }

type gcell = { mutable g : float }

type hcell = {
  limits : float array;
  buckets : int array;  (** length = Array.length limits + 1 (overflow) *)
  mutable hstats : Stats.t;
}

type instrument = Counter of ccell | Gauge of gcell | Histogram of hcell

type registry = { tbl : (string, instrument) Hashtbl.t }

(* The smallest table Hashtbl makes (16 buckets); it grows as
   instruments register. *)
let registry () = { tbl = Hashtbl.create 1 }

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

(* --- Span -------------------------------------------------------------- *)

(* Span ids are allocated per trace id from a minter: a plain counter
   table, at Hashtbl's smallest size to start. *)
type minter = { next : (string, int) Hashtbl.t }

let minter () = { next = Hashtbl.create 1 }

(* --- The context ------------------------------------------------------- *)

type t = {
  mutable metrics : registry;
  mutable prof_root : node;
  mutable prof_cur : node;  (** the innermost open span *)
  mutable recorder : recorder;
  mutable minter : minter;
}

let fresh ~ring =
  let root = node "" in
  { metrics = registry (); prof_root = root; prof_cur = root; recorder = recorder ~ring; minter = minter () }

(* A context belongs to the domain it is current on, and only that
   domain writes to it, so no stream needs a lock.  The main domain
   starts on [main] (a 256-record ring); a spawned domain starts on a
   private scratch context until [Obs.capture] swaps in a task's. *)
let main = fresh ~ring:256

let key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> fresh ~ring:0)

let () = Domain.DLS.set key main

let get () = Domain.DLS.get key

let set c = Domain.DLS.set key c
