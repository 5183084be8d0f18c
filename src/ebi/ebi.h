#ifndef EBI_EBI_H_
#define EBI_EBI_H_

/// Umbrella header for the encoded-bitmap-indexing library, a from-scratch
/// implementation of Wu & Buchmann, "Encoded Bitmap Indexing for Data
/// Warehouses", ICDE 1998.
///
/// Typical usage (see examples/quickstart.cc):
///
///   ebi::Table table("SALES");
///   ... populate ...
///   ebi::IoAccountant io;
///   ebi::EncodedBitmapIndex index(
///       table.FindColumn("product").value(), &table.existence(), &io);
///   index.Build();
///   auto rows = index.EvaluateIn({ebi::Value::Int(3), ebi::Value::Int(4)});

#include "analysis/cost_model.h"
#include "boolean/cover.h"
#include "boolean/cube.h"
#include "boolean/quine_mccluskey.h"
#include "boolean/reduction.h"
#include "encoding/chain.h"
#include "encoding/encoders.h"
#include "encoding/hierarchy.h"
#include "encoding/mapping_table.h"
#include "encoding/optimizer.h"
#include "encoding/range_encoding.h"
#include "encoding/well_defined.h"
#include "exec/thread_pool.h"
#include "index/base_bit_sliced_index.h"
#include "index/bit_sliced_index.h"
#include "index/btree_index.h"
#include "index/cold_encoded_bitmap_index.h"
#include "index/dynamic_bitmap_index.h"
#include "index/encoded_bitmap_index.h"
#include "index/groupset_index.h"
#include "index/index.h"
#include "index/index_factory.h"
#include "index/join_index.h"
#include "index/projection_index.h"
#include "index/range_based_bitmap_index.h"
#include "index/simple_bitmap_index.h"
#include "index/value_list_index.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/aggregates.h"
#include "query/executor.h"
#include "query/index_manager.h"
#include "query/maintenance.h"
#include "query/materialize.h"
#include "query/predicate.h"
#include "query/reencode_advisor.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/csv.h"
#include "storage/io_accountant.h"
#include "storage/table.h"
#include "util/bit_util.h"
#include "util/bitvector.h"
#include "util/random.h"
#include "util/rle_bitmap.h"
#include "util/status.h"
#include "workload/generator.h"
#include "workload/query_mix.h"
#include "workload/star_schema.h"

#endif  // EBI_EBI_H_
