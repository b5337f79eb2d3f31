type t = Advertise of Route.t | Withdraw of Prefix.t
