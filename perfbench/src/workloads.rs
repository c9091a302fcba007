//! The benchmark's workloads: SQL text, input sizes, and the layers each one
//! stresses and bypasses, and the inputs generated for them.

use holistic_window::Table;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One shared-artifact window over a single 200k-row partition.
    SqlBigPartition,
    /// Four windows with mixed `PARTITION BY` / `ORDER BY`, a WHERE and a
    /// final ORDER BY.
    SqlManyWindows,
    /// End-appends of 1k-row batches to an incremental engine.
    AppendStream,
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows of the queried table (SQL) or of the base table the incremental
    /// engine starts from (append).
    pub n: usize,
    /// Rows of the table prefix the naive oracle checks.
    pub oracle_prefix: usize,
    /// Rows per appended batch (append only).
    pub batch_rows: usize,
    /// Batches per append episode (append only).
    pub batches: usize,
    /// Set-up repetitions per query round for the SQL workloads (the append
    /// workload sets up once per episode).
    pub setup_reps: usize,
}

const BIG_PARTITION_SQL: &str = "\
SELECT l_orderkey,
       median(l_extendedprice) OVER w AS med,
       count(DISTINCT l_partkey) OVER w AS dc,
       rank(ORDER BY l_extendedprice) OVER w AS rk
FROM lineitem
WINDOW w AS (ORDER BY l_shipdate
             ROWS BETWEEN l_quantity * 100 PRECEDING AND l_discount FOLLOWING)";

const MANY_WINDOWS_SQL: &str = "\
SELECT l_orderkey,
       median(l_extendedprice) OVER (PARTITION BY l_suppkey ORDER BY l_shipdate
                                     ROWS BETWEEN 20 PRECEDING AND 20 FOLLOWING) AS med,
       count(DISTINCT l_partkey) OVER (PARTITION BY l_suppkey ORDER BY l_receiptdate
                                       RANGE BETWEEN 30 PRECEDING AND CURRENT ROW) AS dc,
       rank() OVER (PARTITION BY l_partkey ORDER BY l_extendedprice DESC) AS rk,
       lag(l_quantity) OVER (PARTITION BY l_partkey ORDER BY l_shipdate) AS prevq
FROM lineitem WHERE l_discount < 900 ORDER BY l_orderkey";

const APPEND_STREAM_SQL: &str = "\
SELECT median(l_extendedprice) OVER w AS med,
       percentile_disc(0.9 ORDER BY l_quantity) OVER w AS p90,
       rank(ORDER BY l_extendedprice) OVER w AS rk,
       cume_dist(ORDER BY l_discount) OVER w AS cd,
       count(*) OVER w AS c
FROM lineitem
WINDOW w AS (PARTITION BY l_returnflag ORDER BY l_orderkey
             ROWS BETWEEN 4999 PRECEDING AND CURRENT ROW)";

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::SqlBigPartition, Workload::SqlManyWindows, Workload::AppendStream];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SqlBigPartition => "sql_big_partition",
            Workload::SqlManyWindows => "sql_many_windows",
            Workload::AppendStream => "append_stream",
        }
    }

    /// Looks a workload up by its flag name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The query text. The append workload lowers it through
    /// `parse_window_query`; the others run it through a `SqlSession`.
    pub fn sql(self) -> &'static str {
        match self {
            Workload::SqlBigPartition => BIG_PARTITION_SQL,
            Workload::SqlManyWindows => MANY_WINDOWS_SQL,
            Workload::AppendStream => APPEND_STREAM_SQL,
        }
    }

    /// True for the workloads timed as SQL text → result table.
    pub fn is_sql(self) -> bool {
        self != Workload::AppendStream
    }

    /// Why the workload was chosen.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SqlBigPartition => {
                "the paper's Fig. 10-12 operations (median, count distinct, framed rank) \
                 over per-row, non-monotonic frames in one partition: every call takes \
                 the merge-sort-tree path"
            }
            Workload::SqlManyWindows => {
                "four windows give ~14k small partitions, and two pairs of windows share \
                 a PARTITION BY with different ORDER BY (Cao et al.)"
            }
            Workload::AppendStream => {
                "the same holistic trees as sql_big_partition, exercised for writes \
                 (forest merges, splicing) instead of reads"
            }
        }
    }

    /// The layers that do almost all of the workload's work.
    pub fn stresses(self) -> &'static str {
        match self {
            Workload::SqlBigPartition => {
                "window::artifacts + holistic-core MST build, probe kernels, window::vm"
            }
            Workload::SqlManyWindows => {
                "sql session, window::partition, window::order, window::strategy, \
                 executor scatter"
            }
            Workload::AppendStream => "window::append, core::leveled, Table::append_rows",
        }
    }

    /// The layers the workload leaves idle.
    pub fn bypasses(self) -> &'static str {
        match self {
            Workload::SqlBigPartition => "sql session work, window::partition, window::append",
            Workload::SqlManyWindows => "MST build and probe kernels, window::append",
            Workload::AppendStream => "sql session and batch executor (after set-up)",
        }
    }

    /// Input sizes: `tiny` is the self-test scale, the default is the
    /// measured one.
    pub fn sizes(self, tiny: bool) -> Sizes {
        match (self, tiny) {
            (Workload::AppendStream, false) => Sizes {
                n: 300_000,
                oracle_prefix: 3_000,
                batch_rows: 1_000,
                batches: 50,
                setup_reps: 1,
            },
            (Workload::AppendStream, true) => {
                Sizes { n: 2_000, oracle_prefix: 600, batch_rows: 50, batches: 8, setup_reps: 1 }
            }
            (_, false) => {
                Sizes { n: 200_000, oracle_prefix: 3_000, batch_rows: 0, batches: 0, setup_reps: 3 }
            }
            (_, true) => {
                Sizes { n: 2_000, oracle_prefix: 600, batch_rows: 0, batches: 0, setup_reps: 1 }
            }
        }
    }
}

/// The append workload's inputs, cut from one generated lineitem table in
/// `l_orderkey` order: the base is `full[..n]`, batch `k` is the next
/// `batch_rows` rows after batch `k - 1`.
pub struct AppendInputs {
    /// The base table followed by every batch.
    pub full: Table,
    /// The batches, in append order.
    pub batches: Vec<Table>,
}

impl AppendInputs {
    /// Generates the inputs from `seed`.
    pub fn generate(sizes: Sizes, seed: u64) -> AppendInputs {
        let full =
            holistic_tpch::lineitem(sizes.n + sizes.batches * sizes.batch_rows, seed).to_table();
        let batches = (0..sizes.batches)
            .map(|k| {
                let start = sizes.n + k * sizes.batch_rows;
                full.slice_rows(start, start + sizes.batch_rows)
            })
            .collect();
        AppendInputs { full, batches }
    }
}
