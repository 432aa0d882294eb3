package monitor

// MinUtil is the Eq. 8 utilization floor, for the external tests.
const MinUtil = minUtil
