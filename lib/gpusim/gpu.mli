(** Device state and kernel launching.

    A {!device} owns global-memory arrays and the shared L2.  {!launch}
    compiles nothing — it takes SASS-lite from {!Codegen} — and runs the
    kernel to completion on the configured number of SMs, returning the
    performance counters and (when requested) the off-chip access trace.

    The launch path mirrors the paper's setup: the shared-memory carveout
    defaults to the smallest configurable option that fits the kernel's
    static [__shared__] usage (Section 4.1), and the residency limit per SM
    is Eq. 3 via {!Cta_scheduler}. *)

exception Launch_error of string

type device

val create : Config.t -> device

val create_shared_l2 : device -> device
(** A second device sharing this one's config and L2 but owning a fresh
    global-memory namespace — a co-resident member's arrays cannot
    collide with the first one's.  Intended for {!launch_group}. *)

val alloc : device -> string -> int -> unit
(** [alloc dev name len] creates a zero-filled device array.  Raises
    {!Launch_error} if the name is taken. *)

val upload : device -> string -> float array -> unit
(** Allocate-and-copy.  Replaces any existing array of that name. *)

val get : device -> string -> float array
(** The live device array (no copy) — read results directly, mutate to
    re-initialize between runs. *)

val arrays : device -> (string * float array) list
(** Every live device array (no copies), sorted by name — the whole final
    memory image, e.g. for bit-identity digests. *)

type arg = Arr of string | Scalar of float

type launch = {
  prog : Bytecode.program;
  grid : int * int;
  block : int * int;
  args : arg list;  (** one per kernel parameter, in declaration order *)
  smem_carveout : int option;
      (** bytes of on-chip memory given to shared memory; [None] picks the
          smallest configurable option fitting the kernel's static usage *)
  sched : Sm.sched;
  trace : bool;  (** record the Fig. 2 off-chip access trace on SM 0 *)
  runtime_throttle :
    [ `None | `Dyncta | `Ccws | `Daws | `Swl of int | `Ciao | `Ata ];
      (** scheduler-level and cache-level mitigation baselines: the
          Section 2.2 ablations — {!Dynamic_throttle} (DYNCTA-like TB
          capping), {!Ccws} (lost-locality warp scheduling), {!Daws}
          (proactive footprint prediction), [`Swl k] (static warp
          limiting, whose best offline choice is the CCWS paper's
          Best-SWL) — plus the interference-aware hardware schemes:
          [`Ciao] ({!Interference} — per-warp victim attribution driving
          selective L1D bypassing with a throttling fallback) and [`Ata]
          (an aggregated-tag-array L1D that admits a line to data storage
          only on proven reuse; see {!Cache.ata_admit}) *)
  bypass_arrays : string list;
      (** arrays whose loads skip the L1D entirely — models the selective
          cache-bypassing alternative of Section 2.2 for ablations *)
  profile : Profile.Collector.t option;
      (** opt-in observability sink ({!Profile.Collector}); hooks fire from
          the scheduler and cache paths but never change simulation
          results.  One collector may span several launches; counters
          aggregate across them. *)
}

val default_launch :
  ?smem_carveout:int ->
  ?sched:Sm.sched ->
  ?trace:bool ->
  ?runtime_throttle:
    [ `None | `Dyncta | `Ccws | `Daws | `Swl of int | `Ciao | `Ata ] ->
  ?bypass_arrays:string list ->
  ?profile:Profile.Collector.t ->
  prog:Bytecode.program ->
  grid:int * int ->
  block:int * int ->
  arg list ->
  launch
(** Every non-geometry field defaults to the plain configuration
    ([None]/GTO/no trace/no runtime throttle/no bypass); pass the labeled
    argument instead of rebuilding the record with [{ ... with ... }]. *)

val args_top : device -> base:int -> launch -> int
(** The exclusive top address the launch's arrays would occupy when bound
    from [base] (the same line-aligned layout {!launch_group} uses).
    Binds nothing — layout planning for co-resident sequences.  Raises
    {!Launch_error} on a bad argument list. *)

type member = {
  dev : device;
  launch : launch;
  base : int;  (** address the member's first array binds at *)
}

val launch_group : member list -> (Stats.t * Trace.t) list
(** Runs an ordered group of kernels to completion on the same SMs, one
    result per member in member order.  Every member must have its own
    device, all sharing one L2 ({!create_shared_l2}).  Registers, warp
    slots and TB slots split evenly between the members, each member
    keeps its own shared-memory carveout, and the remaining on-chip bytes
    are one L1D the members contend for, plus the shared L2 and DRAM
    ports.  Per-member counters stay fully attributed.  A group of one is
    an ordinary solo launch.  A group of more than one refuses runtime
    throttles, traces and profiles.  Raises {!Launch_error} for bad
    argument lists and unlaunchable configurations, and {!Sm.Sim_error}
    for runtime faults (out-of-bounds, division by zero, barrier
    deadlock). *)

val launch : device -> launch -> Stats.t * Trace.t
(** A group of one, its arrays bound from one line past address 0. *)
