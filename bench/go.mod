module movingdb/bench

go 1.22

require movingdb v0.0.0

replace movingdb => ../
