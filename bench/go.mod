module ibasec/bench

go 1.22

require ibasec v0.0.0

replace ibasec => ../
