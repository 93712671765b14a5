package dataset

// CSR is the columnar (structure-of-arrays) view of a dataset's answer
// graph: the bipartite task–worker adjacency flattened into two
// CSR/CSC-style offset+value layouts, one task-major for E-steps and one
// worker-major for M-steps. It is the dataset's only index: Build builds
// it once and every reader shares it through Dataset.CSR. The iterative
// methods run their inner sweeps over these arrays, reading contiguous
// memory with no per-answer struct loads and no allocations;
// TaskAnswers/WorkerAnswers are row views into the answer-index arrays.
//
// Task and worker ids are already dense ints in the data model
// (Definitions 1–5 intern external ids at ingestion), so no id
// dictionaries are needed here; ids narrow to int32 and categorical labels
// to uint16 codes, halving the bytes the hot loops pull through cache.
//
// Iteration order is load-bearing: within a task row (and a worker row)
// answers appear in ascending answer-index order. Floating-point
// accumulation over a row therefore happens in the same order in the
// columnar kernels as in loops over TaskAnswers/WorkerAnswers, keeping
// results bit-identical and preserving the engine determinism contract.
//
// Exactly one of the Label/Value pairs is populated: categorical datasets
// carry labels (TaskValue/WorkerValue are nil), numeric datasets carry
// values (TaskLabel/WorkerLabel are nil).
type CSR struct {
	NumTasks   int
	NumWorkers int
	NumChoices int

	// Task-major layout: answers of task i occupy [TaskOff[i], TaskOff[i+1]).
	TaskOff    []int32 // len NumTasks+1
	TaskWorker []int32 // worker of each answer
	TaskAnswer []int32 // index into Dataset.Answers of each answer
	TaskLabel  []uint16
	TaskValue  []float64

	// Worker-major layout: answers of worker w occupy [WorkerOff[w], WorkerOff[w+1]).
	WorkerOff    []int32 // len NumWorkers+1
	WorkerTask   []int32 // task of each answer
	WorkerAnswer []int32 // index into Dataset.Answers of each answer
	WorkerLabel  []uint16
	WorkerValue  []float64
}

// BuildCSR flattens d's answer graph into a fresh CSR. It is O(answers)
// with two counting-sort passes and never mutates d; the returned arrays
// are independent of the dataset's cached index. d must have passed
// Build's validation, which enforces the int32 id and uint16 label limits.
func BuildCSR(d *Dataset) *CSR {
	c := &CSR{
		NumTasks:   d.NumTasks,
		NumWorkers: d.NumWorkers,
		NumChoices: d.NumChoices,
		TaskOff:    make([]int32, d.NumTasks+1),
		WorkerOff:  make([]int32, d.NumWorkers+1),
	}
	n := len(d.Answers)
	c.TaskWorker = make([]int32, n)
	c.TaskAnswer = make([]int32, n)
	c.WorkerTask = make([]int32, n)
	c.WorkerAnswer = make([]int32, n)
	if d.Categorical() {
		c.TaskLabel = make([]uint16, n)
		c.WorkerLabel = make([]uint16, n)
	} else {
		c.TaskValue = make([]float64, n)
		c.WorkerValue = make([]float64, n)
	}

	// Counting pass: row sizes into the offset slots shifted by one, so the
	// prefix sum turns them into offsets in place.
	for i := range d.Answers {
		c.TaskOff[d.Answers[i].Task+1]++
		c.WorkerOff[d.Answers[i].Worker+1]++
	}
	for i := 1; i <= d.NumTasks; i++ {
		c.TaskOff[i] += c.TaskOff[i-1]
	}
	for w := 1; w <= d.NumWorkers; w++ {
		c.WorkerOff[w] += c.WorkerOff[w-1]
	}

	// Fill pass in ascending answer order (a stable scatter), so each row
	// lists its answers by ascending answer index.
	taskCur := make([]int32, d.NumTasks)
	workerCur := make([]int32, d.NumWorkers)
	copy(taskCur, c.TaskOff[:d.NumTasks])
	copy(workerCur, c.WorkerOff[:d.NumWorkers])
	for i := range d.Answers {
		a := &d.Answers[i]
		ti, wi := taskCur[a.Task], workerCur[a.Worker]
		taskCur[a.Task]++
		workerCur[a.Worker]++
		c.TaskWorker[ti] = int32(a.Worker)
		c.TaskAnswer[ti] = int32(i)
		c.WorkerTask[wi] = int32(a.Task)
		c.WorkerAnswer[wi] = int32(i)
		if c.TaskLabel != nil {
			l := a.Label()
			c.TaskLabel[ti] = uint16(l)
			c.WorkerLabel[wi] = uint16(l)
		} else {
			c.TaskValue[ti] = a.Value
			c.WorkerValue[wi] = a.Value
		}
	}
	return c
}

// TaskDegree returns the number of answers task i received.
func (c *CSR) TaskDegree(i int) int { return int(c.TaskOff[i+1] - c.TaskOff[i]) }

// WorkerDegree returns the number of answers worker w gave.
func (c *CSR) WorkerDegree(w int) int { return int(c.WorkerOff[w+1] - c.WorkerOff[w]) }
