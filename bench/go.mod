module parlouvain/bench

go 1.22

require parlouvain v0.0.0

replace parlouvain => ../
