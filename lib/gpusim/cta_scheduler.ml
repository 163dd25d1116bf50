(** Occupancy: how many thread blocks fit on one SM.

    This implements the paper's Eqs. 1–3 exactly; it is used both by the
    simulator (to decide how many TBs are resident) and by the CATT
    analyzer (whose footprint estimate of Eq. 8 multiplies per-warp traffic
    by the concurrency computed here). *)

type limits = {
  by_shared : int;  (** Eq. 1: SIZE_shm_SM / USE_shm_TB *)
  by_registers : int;  (** Eq. 2: SIZE_reg_SM / USE_reg_TB *)
  by_warp_slots : int;  (** hardware concurrent-warp limit *)
  by_tb_slots : int;  (** hardware concurrent-TB limit *)
}

let unlimited = max_int / 2

(** [limits cfg ~tb_threads ~num_regs ~shared_bytes ~smem_carveout] — all
    four limiting factors for a kernel with [tb_threads] threads per TB,
    [num_regs] registers per thread (4 bytes each) and [shared_bytes] of
    static shared memory per TB, under a given carveout. *)
let limits (cfg : Config.t) ~tb_threads ~num_regs ~shared_bytes ~smem_carveout =
  if tb_threads <= 0 then invalid_arg "Cta_scheduler.limits: empty thread block";
  let by_shared =
    if shared_bytes = 0 then unlimited else smem_carveout / shared_bytes
  in
  let reg_bytes_per_tb = num_regs * 4 * tb_threads in
  let by_registers =
    if reg_bytes_per_tb = 0 then unlimited
    else cfg.register_file_bytes / reg_bytes_per_tb
  in
  let warps_per_tb = (tb_threads + cfg.warp_size - 1) / cfg.warp_size in
  let by_warp_slots = cfg.max_warps_per_sm / warps_per_tb in
  { by_shared; by_registers; by_warp_slots; by_tb_slots = cfg.max_tbs_per_sm }

(** Eq. 3: the binding minimum. *)
let max_tbs_per_sm cfg ~tb_threads ~num_regs ~shared_bytes ~smem_carveout =
  let l = limits cfg ~tb_threads ~num_regs ~shared_bytes ~smem_carveout in
  min (min l.by_shared l.by_registers) (min l.by_warp_slots l.by_tb_slots)

let warps_per_tb (cfg : Config.t) ~tb_threads =
  (tb_threads + cfg.warp_size - 1) / cfg.warp_size

(** Occupancy for one of [parts] kernels co-resident on a spatially
    partitioned SM (the CIAO-style sharing of {!Gpu.launch_group}): the
    kernel keeps its own shared-memory carveout, so Eq. 1 is undivided,
    while the register file, warp slots and TB slots are split evenly
    between the partitions.  A result of 0 means the kernel does not fit
    in its partition — callers must refuse the co-schedule rather than
    round up.  With [parts = 1] this is {!max_tbs_per_sm}. *)
let partitioned_max_tbs_per_sm cfg ~parts ~tb_threads ~num_regs ~shared_bytes
    ~smem_carveout =
  if parts < 1 then
    invalid_arg "Cta_scheduler.partitioned_max_tbs_per_sm: parts < 1";
  let l = limits cfg ~tb_threads ~num_regs ~shared_bytes ~smem_carveout in
  min
    (min l.by_shared (l.by_registers / parts))
    (min (l.by_warp_slots / parts) (l.by_tb_slots / parts))
