package dataset

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomDataset builds a dataset with an adversarial answer order (shuffled,
// with answer-less tasks and workers) for CSR cross-checks.
func randomDataset(t *testing.T, typ TaskType, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const tasks, workers, choices = 37, 11, 5
	var answers []Answer
	for task := 0; task < tasks; task++ {
		if task%9 == 3 {
			continue // answer-less task
		}
		red := 1 + rng.Intn(6)
		perm := rng.Perm(workers)
		for _, w := range perm[:red] {
			if w == 7 {
				continue // worker 7 stays answer-less
			}
			v := float64(rng.Intn(choices))
			if typ == Numeric {
				v = rng.NormFloat64() * 10
			}
			answers = append(answers, Answer{Task: task, Worker: w, Value: v})
		}
	}
	rng.Shuffle(len(answers), func(i, j int) { answers[i], answers[j] = answers[j], answers[i] })
	nc := choices
	if typ == Decision {
		nc = 2
		for i := range answers {
			answers[i].Value = float64(int(answers[i].Value) % 2)
		}
	} else if typ == Numeric {
		nc = 0
	}
	d, err := New("csr-random", typ, nc, tasks, workers, answers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCSRMatchesIndices checks every row of both CSR layouts — the
// dataset's cached index and a fresh BuildCSR — against a brute-force
// ascending scan of Answers: same rows, same in-row answer order, same
// answer indices, workers/tasks and labels/values. That is the property
// the kernels' bit-exact equivalence rests on, and TaskAnswers and
// WorkerAnswers are views into exactly these rows.
func TestCSRMatchesIndices(t *testing.T) {
	for _, typ := range []TaskType{Decision, SingleChoice, Numeric} {
		d := randomDataset(t, typ, int64(typ)+1)
		for name, c := range map[string]*CSR{"cached": d.CSR(), "fresh": BuildCSR(d)} {
			checkCSR(t, fmt.Sprintf("%v %s", typ, name), d, c)
		}
	}
}

func checkCSR(t *testing.T, tag string, d *Dataset, c *CSR) {
	t.Helper()
	if c.NumTasks != d.NumTasks || c.NumWorkers != d.NumWorkers || c.NumChoices != d.NumChoices {
		t.Fatalf("%s: dims (%d,%d,%d) != dataset (%d,%d,%d)", tag,
			c.NumTasks, c.NumWorkers, c.NumChoices, d.NumTasks, d.NumWorkers, d.NumChoices)
	}
	// Brute force: bucket answer indices by task and by worker in one
	// ascending scan of Answers.
	wantTask := make([][]int, d.NumTasks)
	wantWorker := make([][]int, d.NumWorkers)
	for ai, a := range d.Answers {
		wantTask[a.Task] = append(wantTask[a.Task], ai)
		wantWorker[a.Worker] = append(wantWorker[a.Worker], ai)
	}
	// sameValue reports whether CSR slot p carries answer a's label/value.
	sameValue := func(labels []uint16, values []float64, p int, a Answer) bool {
		if d.Categorical() {
			return int(labels[p]) == a.Label()
		}
		return values[p] == a.Value
	}
	for i, want := range wantTask {
		if c.TaskDegree(i) != len(want) {
			t.Fatalf("%s task %d: degree %d, want %d", tag, i, c.TaskDegree(i), len(want))
		}
		for k, ai := range want {
			p := int(c.TaskOff[i]) + k
			a := d.Answers[ai]
			if int(c.TaskAnswer[p]) != ai || int(c.TaskWorker[p]) != a.Worker || !sameValue(c.TaskLabel, c.TaskValue, p, a) {
				t.Fatalf("%s task %d pos %d: slot (answer %d, worker %d) does not match answer %d %+v",
					tag, i, k, c.TaskAnswer[p], c.TaskWorker[p], ai, a)
			}
		}
	}
	for w, want := range wantWorker {
		if c.WorkerDegree(w) != len(want) {
			t.Fatalf("%s worker %d: degree %d, want %d", tag, w, c.WorkerDegree(w), len(want))
		}
		for k, ai := range want {
			p := int(c.WorkerOff[w]) + k
			a := d.Answers[ai]
			if int(c.WorkerAnswer[p]) != ai || int(c.WorkerTask[p]) != a.Task || !sameValue(c.WorkerLabel, c.WorkerValue, p, a) {
				t.Fatalf("%s worker %d pos %d: slot (answer %d, task %d) does not match answer %d %+v",
					tag, w, k, c.WorkerAnswer[p], c.WorkerTask[p], ai, a)
			}
		}
	}
	// Layout invariant: exactly one of the label/value pairs populated.
	if d.Categorical() {
		if c.TaskLabel == nil || c.TaskValue != nil || c.WorkerLabel == nil || c.WorkerValue != nil {
			t.Fatalf("%s: categorical CSR must carry labels only", tag)
		}
	} else if c.TaskValue == nil || c.TaskLabel != nil || c.WorkerValue == nil || c.WorkerLabel != nil {
		t.Fatalf("%s: numeric CSR must carry values only", tag)
	}
}

// TestCSREmptyDataset covers the degenerate shapes: no answers, and a
// dataset with tasks/workers declared but nothing answered.
func TestCSREmptyDataset(t *testing.T) {
	d, err := New("empty", Decision, 2, 4, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := BuildCSR(d)
	if len(c.TaskOff) != 5 || len(c.WorkerOff) != 4 {
		t.Fatalf("offset lengths %d/%d, want 5/4", len(c.TaskOff), len(c.WorkerOff))
	}
	for i := 0; i < 4; i++ {
		if c.TaskDegree(i) != 0 {
			t.Fatalf("task %d degree %d, want 0", i, c.TaskDegree(i))
		}
	}
}
