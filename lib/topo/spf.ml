type paths = { src : Domain.id; dist : int array; via : Domain.id array }

let m_bfs = Metrics.counter "spf.bfs_runs"

let m_cache_hit = Metrics.counter "spf.cache_hits"

let m_cache_miss = Metrics.counter "spf.cache_misses"

(* ------------------------------------------------------------------ *)
(* The BFS kernel: a resumable search                                  *)
(* ------------------------------------------------------------------ *)

(* A search is one BFS from [view.src], paused between two node
   expansions.  [queue.(0 .. tail - 1)] holds the discovered nodes in
   discovery order and [queue.(head .. tail - 1)] those not yet
   expanded.  BFS sets a node's dist/via once, when it discovers it, so
   a discovered node's labels are final; an undiscovered one reads
   max_int/-1, which means "not yet known" until the queue runs empty.
   Since nothing outside the queue prefix is ever written, a new start
   resets only that prefix.  [bfs_into] runs the workspace's own search
   over the caller's arrays; [make_search] builds one that owns them. *)
type search = {
  mutable scsr : Topo.csr;
  mutable salive : bool array;  (* by link id; [||] means all alive *)
  mutable sdist : int array;
  mutable svia : Domain.id array;
  mutable queue : int array;  (* BFS FIFO; each node is enqueued at most once *)
  mutable head : int;
  mutable tail : int;
  mutable view : paths;  (* [src = -1] until started *)
}

let unstarted = { src = -1; dist = [||]; via = [||] }

let make_search (csr : Topo.csr) =
  let n = csr.Topo.csr_nodes in
  {
    scsr = csr;
    salive = [||];
    sdist = Array.make n max_int;
    svia = Array.make n (-1);
    queue = Array.make (max 1 n) 0;
    head = 0;
    tail = 0;
    view = unstarted;
  }

let check_source fn (csr : Topo.csr) src =
  if src < 0 || src >= csr.Topo.csr_nodes then invalid_arg (fn ^ ": unknown source id")

let start s src =
  check_source "Spf.start" s.scsr src;
  Metrics.incr m_bfs;
  let dist = s.sdist and via = s.svia and q = s.queue in
  for i = 0 to s.tail - 1 do
    let v = q.(i) in
    dist.(v) <- max_int;
    via.(v) <- -1
  done;
  dist.(src) <- 0;
  q.(0) <- src;
  s.head <- 0;
  s.tail <- 1;
  s.view <- { src; dist; via }

(* The one BFS loop: expand the FIFO until [target] is discovered, or
   ([target < 0]) until it is empty.  The [salive] mask is keyed by link
   id (through [csr.eid]): a dead edge is simply never relaxed, and the
   empty mask keeps the unmasked hot path branch-cheap.  The masked
   loop doubles as the from-scratch oracle the incremental cache
   repairs are differentially tested against. *)
let advance s target =
  let csr = s.scsr in
  let row = csr.Topo.row and nbr = csr.Topo.nbr and eid = csr.Topo.eid in
  let alive = s.salive in
  let masked = Array.length alive > 0 in
  let dist = s.sdist and via = s.svia and q = s.queue in
  let head = ref s.head and tail = ref s.tail in
  (* Unchecked accesses, in bounds by construction: [dist], [via] and
     [queue] have room for the snapshot's n nodes ([start] and [bfs_into]
     see to it), the CSR's rows index [nbr] and its neighbours are node
     ids, and a node is enqueued once so [tail <= n].  The caller's
     [alive] mask keeps its checks. *)
  while !head < !tail && (target < 0 || dist.(target) = max_int) do
    let u = Array.unsafe_get q !head in
    incr head;
    let du1 = Array.unsafe_get dist u + 1 in
    for k = Array.unsafe_get row u to Array.unsafe_get row (u + 1) - 1 do
      if (not masked) || alive.(eid.(k)) then begin
        let v = Array.unsafe_get nbr k in
        if Array.unsafe_get dist v = max_int then begin
          Array.unsafe_set dist v du1;
          Array.unsafe_set via v u;
          Array.unsafe_set q !tail v;
          incr tail
        end
      end
    done
  done;
  s.head <- !head;
  s.tail <- !tail

let check_started fn s = if s.view.src < 0 then invalid_arg (fn ^ ": search not started")

let reach s v =
  check_started "Spf.reach" s;
  if v < 0 || v >= s.scsr.Topo.csr_nodes then invalid_arg "Spf.reach: unknown node id";
  if s.sdist.(v) = max_int && s.head < s.tail then advance s v

let complete s =
  check_started "Spf.complete" s;
  advance s (-1)

let search_source s = s.view.src

let search_paths s = s.view

(* ------------------------------------------------------------------ *)
(* Workspace: preallocated scratch shared by the kernel and repairs    *)
(* ------------------------------------------------------------------ *)

type workspace = {
  run : search;  (* [bfs_into]'s search; its arrays are the caller's *)
  mutable hkey : int array;  (* binary heap: keys *)
  mutable hnode : int array;  (* binary heap: node ids *)
  mutable hseq : int array;  (* binary heap: insertion seq (FIFO ties) *)
  mutable hsize : int;
  mutable hseq_next : int;
}

let make_workspace (c : Topo.csr) =
  let n = c.Topo.csr_nodes in
  let m = Array.length c.Topo.nbr in
  {
    run =
      {
        scsr = c;
        salive = [||];
        sdist = [||];
        svia = [||];
        queue = Array.make (max 1 n) 0;
        head = 0;
        tail = 0;
        view = unstarted;
      };
    hkey = Array.make (max 16 (m + 1)) 0;
    hnode = Array.make (max 16 (m + 1)) 0;
    hseq = Array.make (max 16 (m + 1)) 0;
    hsize = 0;
    hseq_next = 0;
  }

let fit_workspace ws (c : Topo.csr) =
  let n = c.Topo.csr_nodes in
  let m = Array.length c.Topo.nbr in
  if Array.length ws.run.queue < n then ws.run.queue <- Array.make n 0;
  if Array.length ws.hkey < m + 1 then begin
    ws.hkey <- Array.make (m + 1) 0;
    ws.hnode <- Array.make (m + 1) 0;
    ws.hseq <- Array.make (m + 1) 0
  end

let resolve_ws ws csr =
  match ws with
  | Some ws ->
      fit_workspace ws csr;
      ws
  | None -> make_workspace csr

(* Heap ordering is (key, seq) lexicographic: equal distances settle in
   push order, so a repair's tie-breaks are deterministic. *)

let heap_less ws i j =
  ws.hkey.(i) < ws.hkey.(j) || (ws.hkey.(i) = ws.hkey.(j) && ws.hseq.(i) < ws.hseq.(j))

let heap_swap ws i j =
  let k = ws.hkey.(i) and n = ws.hnode.(i) and s = ws.hseq.(i) in
  ws.hkey.(i) <- ws.hkey.(j);
  ws.hnode.(i) <- ws.hnode.(j);
  ws.hseq.(i) <- ws.hseq.(j);
  ws.hkey.(j) <- k;
  ws.hnode.(j) <- n;
  ws.hseq.(j) <- s

(* Repairs push one entry per improvement, which is not bounded by the
   edge count the initial sizing assumed — grow on demand. *)
let heap_ensure ws =
  let cap = Array.length ws.hkey in
  if ws.hsize = cap then begin
    let hkey = Array.make (2 * cap) 0 in
    let hnode = Array.make (2 * cap) 0 in
    let hseq = Array.make (2 * cap) 0 in
    Array.blit ws.hkey 0 hkey 0 cap;
    Array.blit ws.hnode 0 hnode 0 cap;
    Array.blit ws.hseq 0 hseq 0 cap;
    ws.hkey <- hkey;
    ws.hnode <- hnode;
    ws.hseq <- hseq
  end

let heap_push ws key node =
  heap_ensure ws;
  let i = ws.hsize in
  ws.hkey.(i) <- key;
  ws.hnode.(i) <- node;
  ws.hseq.(i) <- ws.hseq_next;
  ws.hseq_next <- ws.hseq_next + 1;
  ws.hsize <- i + 1;
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if heap_less ws !i parent then begin
      heap_swap ws !i parent;
      i := parent
    end
    else continue := false
  done

(* Removes the minimum, leaving its key/node readable via the caller
   having copied them first. *)
let heap_remove_min ws =
  ws.hsize <- ws.hsize - 1;
  if ws.hsize > 0 then begin
    heap_swap ws 0 ws.hsize;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < ws.hsize && heap_less ws l !smallest then smallest := l;
      if r < ws.hsize && heap_less ws r !smallest then smallest := r;
      if !smallest <> !i then begin
        heap_swap ws !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end

(* ------------------------------------------------------------------ *)
(* Run to exhaustion: [bfs_into]                                       *)
(* ------------------------------------------------------------------ *)

let mask_of = function Some a when Array.length a > 0 -> a | Some _ | None -> [||]

(* A search run to exhaustion over caller-owned [dist]/[via]: they may
   hold anything, so both are reset in full (O(n) stores), and a caller
   that keeps a pair per worker allocates only the 4-word [paths]
   record per run.  The workspace's search lets go of the arrays when
   done. *)
let bfs_kernel ~ws ~alive (csr : Topo.csr) ~dist ~via src =
  check_source "Spf.bfs_into" csr src;
  let n = csr.Topo.csr_nodes in
  if Array.length dist <> n || Array.length via <> n then
    invalid_arg "Spf.bfs_into: dist/via arrays sized for another topology";
  fit_workspace ws csr;
  Array.fill dist 0 n max_int;
  Array.fill via 0 n (-1);
  let s = ws.run in
  s.scsr <- csr;
  s.salive <- alive;
  s.sdist <- dist;
  s.svia <- via;
  s.tail <- 0;
  start s src;
  advance s (-1);
  let p = s.view in
  s.salive <- [||];
  s.sdist <- [||];
  s.svia <- [||];
  s.view <- unstarted;
  p

(* The exported kernel carries a profiler section; the disabled path is
   one flag test, keeping the kernel bench-clean. *)

let bfs_into ~ws ?alive csr ~dist ~via src =
  let alive = mask_of alive in
  if Prof.is_enabled () then
    Prof.span "spf.bfs" (fun () -> bfs_kernel ~ws ~alive csr ~dist ~via src)
  else bfs_kernel ~ws ~alive csr ~dist ~via src

let bfs_csr ?ws ?alive csr src =
  let n = csr.Topo.csr_nodes in
  bfs_into ~ws:(resolve_ws ws csr) ?alive csr ~dist:(Array.make n max_int)
    ~via:(Array.make n (-1)) src

(* ------------------------------------------------------------------ *)
(* Default entry point: freeze (memoized) + a shared workspace         *)
(* ------------------------------------------------------------------ *)

(* One workspace per domain, grown to the largest graph seen, keeps the
   common call sites (Shared_tree, Path_eval, Bgmp_fabric, Membership,
   ...) allocation-free without threading a workspace through every
   signature.  Domain-local (not global) so Par worker domains calling
   [bfs] never share scratch.  NB: [Domain] in this library is the
   multicast addressing domain; the runtime one is [Stdlib.Domain]. *)
let shared_ws_key : workspace option ref Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> ref None)

let with_shared_ws csr =
  let cell = Stdlib.Domain.DLS.get shared_ws_key in
  match !cell with
  | Some ws ->
      fit_workspace ws csr;
      ws
  | None ->
      let ws = make_workspace csr in
      cell := Some ws;
      ws

let bfs topo src =
  let csr = Topo.freeze topo in
  bfs_csr ~ws:(with_shared_ws csr) csr src

(* ------------------------------------------------------------------ *)
(* Result accessors                                                    *)
(* ------------------------------------------------------------------ *)

let dist p id = p.dist.(id)

let next_hop_toward _topo p node =
  if node = p.src || p.dist.(node) = max_int then None else Some p.via.(node)

(* ------------------------------------------------------------------ *)
(* Maintained BFS cache: trees repaired in place under link deltas     *)
(* ------------------------------------------------------------------ *)

let m_inc_repairs = Metrics.counter "spf.inc_repairs"

let m_inc_touched = Metrics.counter "spf.inc_touched"

(* Each filled slot is a MAINTAINED tree.  [cache_note_link] flips a
   link's alive bit and ripple-repairs every filled slot —
   decrease-ripple on restore, affected-subtree rebuild on failure —
   instead of invalidating and recomputing from scratch.  Dead links
   are carried as a bool mask keyed by link id, so the masked kernel
   over the same snapshot is the differential oracle for any repaired
   tree. *)

type cache = {
  ccsr : Topo.csr;
  cws : workspace;
  mutable slots : paths option array;  (* keyed by source id; [||] until first use *)
  mutable filled : int array;  (* the filled (Some) slots' source ids, ascending *)
  mutable nfilled : int;  (* ... in [filled.(0 .. nfilled - 1)] *)
  mutable spare : paths list;
      (* trees dropped by [cache_reset]: a miss recomputes into one of
         their [dist]/[via] pairs before it allocates a new one *)
  mutable alive : bool array;  (* by link id; [||] means all alive *)
  mutable ring : int array;  (* repair FIFO over nodes, n *)
  mutable mark : bool array;  (* repair flags, n; all-false at rest *)
  mutable repairs : int;  (* link transitions that repaired >= 1 tree *)
  mutable touched : int;  (* labels rewritten across all repairs *)
}

(* The slot array and the repair scratch are allocated on first use: a
   per-trial cache that never sees a query or a link delta costs a few
   words, not n-sized arrays. *)
let make_cache_csr ?ws csr =
  {
    ccsr = csr;
    cws = resolve_ws ws csr;
    slots = [||];
    filled = [||];
    nfilled = 0;
    spare = [];
    alive = [||];
    ring = [||];
    mark = [||];
    repairs = 0;
    touched = 0;
  }

let make_cache topo = make_cache_csr (Topo.freeze topo)

let alive_opt c = if Array.length c.alive = 0 then None else Some c.alive

(* The link between [a] and [b] is unique ([Topo.add_link] rejects
   duplicates), so scanning the shorter of the two CSR rows finds it. *)
let find_link c a b =
  let csr = c.ccsr in
  let n = csr.Topo.csr_nodes in
  if a < 0 || b < 0 || a >= n || b >= n then None
  else begin
    let row = csr.Topo.row and nbr = csr.Topo.nbr in
    let u, v = if row.(a + 1) - row.(a) <= row.(b + 1) - row.(b) then (a, b) else (b, a) in
    let found = ref None in
    for k = row.(u) to row.(u + 1) - 1 do
      if nbr.(k) = v then found := Some csr.Topo.eid.(k)
    done;
    !found
  end

let ensure_scratch c =
  let n = c.ccsr.Topo.csr_nodes in
  if Array.length c.mark < n then begin
    c.mark <- Array.make (max 16 n) false;
    c.ring <- Array.make (max 16 n) 0
  end

(* Edge (a, b) came alive: seed both directions, then decrease-ripple.
   The ring FIFO is deduped with [mark] (a node already queued is just
   relabelled in place), so at most n entries are ever pending and the
   n-slot ring never wraps onto live entries. *)
let bfs_insert_repair c (p : paths) a b =
  let csr = c.ccsr in
  let row = csr.Topo.row and nbr = csr.Topo.nbr and eid = csr.Topo.eid in
  let alive = c.alive in
  let masked = Array.length alive > 0 in
  let dist = p.dist and via = p.via in
  let ring = c.ring and mark = c.mark in
  let cap = Array.length ring in
  let head = ref 0 and size = ref 0 in
  let touched = ref 0 in
  let push v =
    if not mark.(v) then begin
      mark.(v) <- true;
      ring.((!head + !size) mod cap) <- v;
      incr size
    end
  in
  let seed u v =
    if dist.(u) <> max_int && dist.(u) + 1 < dist.(v) then begin
      dist.(v) <- dist.(u) + 1;
      via.(v) <- u;
      incr touched;
      push v
    end
  in
  seed a b;
  seed b a;
  while !size > 0 do
    let u = ring.(!head) in
    head := (!head + 1) mod cap;
    decr size;
    mark.(u) <- false;
    let du1 = dist.(u) + 1 in
    for k = row.(u) to row.(u + 1) - 1 do
      if (not masked) || alive.(eid.(k)) then begin
        let v = nbr.(k) in
        if du1 < dist.(v) then begin
          dist.(v) <- du1;
          via.(v) <- u;
          incr touched;
          push v
        end
      end
    done
  done;
  !touched

(* Edge (a, b) died.  If the tree does not use it, the tree is its own
   witness that every distance is still optimal and nothing happens.
   Otherwise: collect the orphaned subtree (children satisfy
   [via.(child) = parent] and are graph neighbors, so one CSR row scan
   per member finds them; [mark] admits each orphan once, so the ring
   holds at most n and, once drained, lists the orphans), reset it, pull boundary candidates from
   intact alive neighbors, and settle the affected set with a restricted
   Dijkstra over unit weights.  The first pop of a node carries its
   final distance; later pops are stale and skipped via [mark]. *)
let bfs_delete_repair c (p : paths) a b =
  let dist = p.dist and via = p.via in
  let orphan = if via.(b) = a then b else if via.(a) = b then a else -1 in
  if orphan < 0 then 0
  else begin
    let csr = c.ccsr in
    let row = csr.Topo.row and nbr = csr.Topo.nbr and eid = csr.Topo.eid in
    let alive = c.alive in
    let masked = Array.length alive > 0 in
    let ring = c.ring and mark = c.mark in
    let qh = ref 0 and qt = ref 0 in
    mark.(orphan) <- true;
    ring.(!qt) <- orphan;
    incr qt;
    while !qh < !qt do
      let u = ring.(!qh) in
      incr qh;
      for k = row.(u) to row.(u + 1) - 1 do
        let v = nbr.(k) in
        if (not mark.(v)) && via.(v) = u then begin
          mark.(v) <- true;
          ring.(!qt) <- v;
          incr qt
        end
      done
    done;
    let na = !qt in
    for i = 0 to na - 1 do
      let v = ring.(i) in
      dist.(v) <- max_int;
      via.(v) <- -1
    done;
    let ws = c.cws in
    ws.hsize <- 0;
    ws.hseq_next <- 0;
    for i = 0 to na - 1 do
      let v = ring.(i) in
      let best = ref max_int and bvia = ref (-1) in
      for k = row.(v) to row.(v + 1) - 1 do
        if (not masked) || alive.(eid.(k)) then begin
          let u = nbr.(k) in
          if (not mark.(u)) && dist.(u) <> max_int && dist.(u) + 1 < !best then begin
            best := dist.(u) + 1;
            bvia := u
          end
        end
      done;
      if !best < max_int then begin
        dist.(v) <- !best;
        via.(v) <- !bvia;
        heap_push ws !best v
      end
    done;
    while ws.hsize > 0 do
      let v = ws.hnode.(0) in
      heap_remove_min ws;
      if mark.(v) then begin
        mark.(v) <- false;
        let dv1 = dist.(v) + 1 in
        for k = row.(v) to row.(v + 1) - 1 do
          if (not masked) || alive.(eid.(k)) then begin
            let w = nbr.(k) in
            if mark.(w) && dv1 < dist.(w) then begin
              dist.(w) <- dv1;
              via.(w) <- v;
              heap_push ws dv1 w
            end
          end
        done
      end
    done;
    (* nodes cut off entirely keep max_int; drop their leftover marks *)
    for i = 0 to na - 1 do
      mark.(ring.(i)) <- false
    done;
    na
  end

(* Repairs visit the filled slots in ascending source id, through
   [filled]: a cache over a large graph holds few trees, and scanning
   every slot for them would cost more than the repairs. *)
let repair_all c lid up =
  ensure_scratch c;
  fit_workspace c.cws c.ccsr;
  let l = c.ccsr.Topo.linkv.(lid) in
  let a = l.Topo.a and b = l.Topo.b in
  let touched = ref 0 in
  for i = 0 to c.nfilled - 1 do
    let p = Option.get c.slots.(c.filled.(i)) in
    touched := !touched + (if up then bfs_insert_repair c p a b else bfs_delete_repair c p a b)
  done;
  if c.nfilled > 0 then begin
    c.repairs <- c.repairs + 1;
    Metrics.incr m_inc_repairs;
    c.touched <- c.touched + !touched;
    Metrics.add m_inc_touched !touched
  end

let cache_note_link c ~a ~b ~up =
  match find_link c a b with
  | None -> ()  (* not a link of this snapshot: nothing maintained to fix *)
  | Some lid ->
      let now_alive = Array.length c.alive = 0 || c.alive.(lid) in
      if now_alive <> up then begin
        if Array.length c.alive = 0 then
          c.alive <- Array.make (max 1 (Array.length c.ccsr.Topo.linkv)) true;
        c.alive.(lid) <- up;
        if Prof.is_enabled () then Prof.span "spf.repair" (fun () -> repair_all c lid up)
        else repair_all c lid up
      end

(* Insert [src] into the ascending [filled] prefix.  The shift is at most
   one entry per filled tree, far below the BFS that fills a slot. *)
let note_filled c src =
  if c.nfilled = Array.length c.filled then begin
    let grown = Array.make (max 16 (2 * c.nfilled)) 0 in
    Array.blit c.filled 0 grown 0 c.nfilled;
    c.filled <- grown
  end;
  let i = ref c.nfilled in
  while !i > 0 && c.filled.(!i - 1) > src do
    c.filled.(!i) <- c.filled.(!i - 1);
    decr i
  done;
  c.filled.(!i) <- src;
  c.nfilled <- c.nfilled + 1

let bfs_cached c src =
  if Array.length c.slots = 0 then c.slots <- Array.make (max 1 c.ccsr.Topo.csr_nodes) None;
  match c.slots.(src) with
  | Some p ->
      Metrics.incr m_cache_hit;
      p
  | None ->
      Metrics.incr m_cache_miss;
      let p =
        match c.spare with
        | old :: rest ->
            c.spare <- rest;
            bfs_into ~ws:c.cws ?alive:(alive_opt c) c.ccsr ~dist:old.dist ~via:old.via src
        | [] -> bfs_csr ~ws:c.cws ?alive:(alive_opt c) c.ccsr src
      in
      c.slots.(src) <- Some p;
      note_filled c src;
      p

let cache_reset c =
  for i = 0 to c.nfilled - 1 do
    let src = c.filled.(i) in
    c.spare <- Option.get c.slots.(src) :: c.spare;
    c.slots.(src) <- None
  done;
  c.nfilled <- 0;
  Array.fill c.alive 0 (Array.length c.alive) true;
  c.repairs <- 0;
  c.touched <- 0

let cache_repair_stats c = (c.repairs, c.touched)
