(* Serialized schedule values that OGB_SCHEDULE / --schedule pin
   (Schedule), below lib/exec so the CLI and the bench can parse them
   without the plan representation.  Calibration.reload is a no-op kept
   for bench/e2e. *)

module Calibration = Calibration
module Schedule = Schedule
