(** Plain-text reporting: aligned tables, ASCII series plots and CSV.

    Every table and figure of the paper is re-emitted through this module
    by the benchmark harness, so results are readable in a terminal and
    machine-readable from the CSV mirror. *)

(** [write_atomic path contents] writes [contents] to [path] atomically:
    the bytes land in a temporary file in [path]'s directory, which is
    then renamed into place. Readers never observe a torn or partial
    file — they see either the previous contents or the new ones. The
    temporary is removed on failure and the exception re-raised. Every
    output file the tools produce (JSON reports, CSVs, bases, cache
    entries) goes through this helper. *)
val write_atomic : string -> string -> unit

module Table : sig
  (** [render ~header rows] renders an aligned table with a separator under
      the header. Cells are padded to the widest entry per column. *)
  val render : header:string list -> string list list -> string
end

module Series : sig
  (** [plot ?width ?height ?y_label series] draws the paper's Figure-10
      style chart: each named series is a list of y-values plotted against
      its index (x). Values are clamped into the data range; each series
      uses its own marker character, listed in the legend. *)
  val plot :
    ?width:int ->
    ?height:int ->
    ?y_label:string ->
    (string * float array) list ->
    string
end

module Json : sig
  (** A minimal JSON document emitter for the benchmark and audit reports
      (objects, arrays, scalars; pretty-printed, trailing newline). The
      library writes JSON but never reads it; readers live outside, such
      as CI's Python checks.

      Float contract for those readers: each [Float] is emitted as the
      shortest decimal token that reads back to the same [float] bit for
      bit, and the token always carries a [.] or an [e], so a JSON reader
      returns a float, never an integer. {!to_string} raises
      [Invalid_argument] on NaN or infinity: JSON has no such literals,
      so emitting one would produce a document no reader accepts. *)

  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** Atomic (see {!Report.write_atomic}). *)
  val write_file : string -> t -> unit
end

module Log : sig
  (** Leveled diagnostics, safe under domain parallelism: the one
      diagnostics path of the library and the CLI. Each event names its
      source: [core] (the router driver), [milp], [simplex], [maze],
      [lagrangian], [exec] (the domain pool), [sweep], [audit], [serve]
      and [serve.cache].

      The library renders nothing until a level is set, either by
      {!set_level} or by the [OPTROUTER_LOG] environment variable, read
      once at start-up. The CLI sets the level from [-v], [-q] and
      [--verbosity] (whose environment default is [OPTROUTER_LOG]) and
      defaults to [warning]. An event below the level is not rendered but
      {e counted} against its source ({!counts}, surfaced in the sweep
      telemetry), so a quiet run still shows how much it suppressed.

      The default sink writes each event as one line,
      [[src] level: message], with a single [output_string], which
      concurrent domains can reorder but not interleave. All internal
      state is atomic. *)

  type level = Debug | Info | Warn | Error

  (** Parse a level setting. The names, matched case-insensitively, are
      [quiet] ([None]), [error], [warning] (or [warn]), [info] and
      [debug]; [OPTROUTER_LOG] and the CLI's [--verbosity] both take
      them. *)
  val level_of_string : string -> (level option, string) result

  (** The canonical name of a level setting, one of those above. *)
  val level_to_string : level option -> string

  (** Render events at [lvl] and above; [None] renders nothing. The
      initial setting is the one [OPTROUTER_LOG] names, else [None]. *)
  val set_level : level option -> unit

  (** Replace ([Some]) or restore ([None]) the stderr sink. *)
  val set_sink : (level -> src:string -> string -> unit) option -> unit

  (** [event lvl ~src msg] formats [msg] and emits it when [lvl] is
      enabled, and otherwise counts one suppressed event against [src].
      [msg] is only forced when rendering. *)
  val event : level -> src:string -> (unit -> string) -> unit

  val debug : src:string -> (unit -> string) -> unit
  val info : src:string -> (unit -> string) -> unit
  val warn : src:string -> (unit -> string) -> unit
  val error : src:string -> (unit -> string) -> unit

  (** Per-source counts of the events suppressed since start-up, sorted
      by source, zero entries omitted. *)
  val counts : unit -> (string * int) list
end

module Csv : sig
  val to_string : header:string list -> string list list -> string

  (** Atomic (see {!Report.write_atomic}). *)
  val write_file : string -> header:string list -> string list list -> unit
end
