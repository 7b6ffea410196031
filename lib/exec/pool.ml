module Log = Optrouter_report.Report.Log

(* The pool is two queues guarded by one mutex each: [queue] carries
   pending jobs to the workers, and each [map_result] call carries its own
   completion queue back to the collector. Jobs are plain closures that
   know their batch, so a single generation of workers serves any number
   of map calls. *)

type t = {
  n_domains : int;
  mutex : Mutex.t;
  work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let domains t = max 1 t.n_domains

let worker t () =
  let rec next () =
    if t.stop then None
    else
      match Queue.take_opt t.queue with
      | Some job -> Some job
      | None ->
        Condition.wait t.work t.mutex;
        next ()
  in
  let rec loop () =
    Mutex.lock t.mutex;
    let job = next () in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some job ->
      (* Jobs capture their own exceptions; a raise here is a pool bug. *)
      job ();
      loop ()
  in
  loop ()

(* Deliberately NOT clamped to [Domain.recommended_domain_count]: on a
   small host that would silently disable the parallel path (and its
   tests), whereas oversubscribed domains merely time-slice. The cap only
   guards against absurd requests. *)
let max_domains = 128

let create ~domains =
  let requested = max 0 domains in
  let n = if requested < 2 then requested else min requested max_domains in
  let t =
    {
      n_domains = n;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
    }
  in
  if n >= 2 then begin
    t.workers <- List.init n (fun _ -> Domain.spawn (worker t));
    Log.debug ~src:"exec" (fun () -> Printf.sprintf "%d worker domains" n)
  end;
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_task f x = try Ok (f x) with e -> Error e

let map_serial ?on_done f tasks =
  Array.to_list
    (Array.mapi
       (fun i x ->
         let r = run_task f x in
         (match on_done with Some g -> g i r | None -> ());
         r)
       tasks)

let map_parallel ?on_done t f tasks =
  let n = Array.length tasks in
  let slots = Array.make n None in
  let done_mutex = Mutex.create () in
  let done_cond = Condition.create () in
  let completed = Queue.create () in
  let job i x () =
    let r = run_task f x in
    Mutex.lock done_mutex;
    slots.(i) <- Some r;
    Queue.push i completed;
    Condition.signal done_cond;
    Mutex.unlock done_mutex
  in
  Mutex.lock t.mutex;
  Array.iteri (fun i x -> Queue.push (job i x) t.queue) tasks;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  (* Collect in the calling domain so [on_done] needs no locking on the
     caller's side. Completion order is whatever the workers produce;
     the returned list is always in task order via [slots]. *)
  let processed = ref 0 in
  while !processed < n do
    Mutex.lock done_mutex;
    while Queue.is_empty completed do
      Condition.wait done_cond done_mutex
    done;
    let batch = List.of_seq (Queue.to_seq completed) in
    Queue.clear completed;
    Mutex.unlock done_mutex;
    List.iter
      (fun i ->
        incr processed;
        match on_done with Some g -> g i (Option.get slots.(i)) | None -> ())
      batch
  done;
  Array.to_list (Array.map Option.get slots)

(* A map runs its tasks one at a time when the pool has no workers or
   there is only one task: a lone task gains nothing from a worker. *)
let one_at_a_time t ntasks = t.workers = [] || ntasks <= 1

let map_result ?on_done t f xs =
  let tasks = Array.of_list xs in
  if Array.length tasks = 0 then []
  else if one_at_a_time t (Array.length tasks) then map_serial ?on_done f tasks
  else map_parallel ?on_done t f tasks

let map ?on_done t f xs =
  List.map
    (function Ok v -> v | Error e -> raise e)
    (map_result ?on_done t f xs)

(* The one width rule of every fan-out of solves: widen only solves that
   run one at a time, so a pool's domains are its only parallelism. *)
let solver_width t ~tasks want = if one_at_a_time t tasks then want else 1

let env_int_jobs name =
  match Sys.getenv_opt name with
  | None -> 1
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 1 -> n
    | Some n ->
      Log.warn ~src:"exec" (fun () ->
          Printf.sprintf "%s=%d is not a positive job count; running serially"
            name n);
      1
    | None ->
      Log.warn ~src:"exec" (fun () ->
          Printf.sprintf "%s=%S is not an integer; running serially" name v);
      1)

let env_jobs () = env_int_jobs "OPTROUTER_JOBS"
let env_solver_jobs () = env_int_jobs "OPTROUTER_SOLVER_JOBS"
