module dgc/benchmark

go 1.22

require dgc v0.0.0

replace dgc => ../
